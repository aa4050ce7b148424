"""Unit tests for the CFG builder and the forward dataflow solver.

These exercise the engine underneath the flow rules (REP011, REP014,
REP015) directly, on shapes the fixture tests only cover indirectly:
loop back-edges, dead code after ``return``, conservative ``try``
edges, and fixpoint convergence of a simple constant-ish analysis.
"""

from __future__ import annotations

import ast

import pytest

from repro.lint.cfg import build_cfg, stmt_expressions
from repro.lint.dataflow import ForwardAnalysis, solve

pytestmark = pytest.mark.lint


def cfg_of(src: str):
    return build_cfg(ast.parse(src).body)


def edges(cfg):
    return {
        (src.bid, dst, label)
        for src in cfg
        for dst, label in src.succs
    }


class TestCFGShape:
    def test_straight_line_is_one_block(self):
        cfg = cfg_of("a = 1\nb = a\nc = b\n")
        entry = cfg.block(cfg.entry)
        assert len(entry.stmts) == 3
        assert entry.succs == [(cfg.exit, "")]

    def test_if_produces_labeled_edges_and_join(self):
        cfg = cfg_of("if cond:\n    x = 1\ny = 2\n")
        entry = cfg.block(cfg.entry)
        assert isinstance(entry.test, ast.Name)
        labels = {label for _, label in entry.succs}
        assert labels == {"true", "false"}

    def test_while_has_back_edge(self):
        cfg = cfg_of("while cond:\n    x = 1\n")
        # Some block must point back at the block holding the test.
        header = next(b for b in cfg if b.test is not None)
        assert any(
            (dst == header.bid) for b in cfg for dst, _ in b.succs
            if b.bid != cfg.entry
        )

    def test_for_header_holds_the_for_node(self):
        cfg = cfg_of("for i in xs:\n    y = i\n")
        header = next(
            b for b in cfg if b.stmts and isinstance(b.stmts[0], ast.For)
        )
        # The body statement must NOT be inside the header block.
        assert len(header.stmts) == 1

    def test_return_ends_flow_but_dead_code_is_kept(self):
        cfg = cfg_of("def f():\n    return 1\n    x = 2\n")
        body_cfg = build_cfg(ast.parse("return 1\nx = 2\n").body)
        dead = [
            b for b in body_cfg
            if b.stmts and isinstance(b.stmts[0], ast.Assign)
        ]
        assert len(dead) == 1  # analyzed even though unreachable
        preds = {dst for blk in body_cfg for dst, _ in blk.succs}
        assert dead[0].bid not in preds

    def test_try_body_blocks_reach_every_handler(self):
        cfg = cfg_of(
            "try:\n"
            "    a = 1\n"
            "except ValueError:\n"
            "    b = 2\n"
            "except KeyError:\n"
            "    c = 3\n"
        )
        body = next(
            b for b in cfg
            if b.stmts and isinstance(b.stmts[0], ast.Assign)
            and b.stmts[0].targets[0].id == "a"
        )
        handler_entries = {
            b.bid for b in cfg
            if b.stmts and isinstance(b.stmts[0], ast.Assign)
            and b.stmts[0].targets[0].id in ("b", "c")
        }
        assert handler_entries <= {dst for dst, _ in body.succs}

    def test_break_targets_loop_exit(self):
        cfg = cfg_of("while cond:\n    break\nafter = 1\n")
        brk = next(
            b for b in cfg if b.stmts and isinstance(b.stmts[0], ast.Break)
        )
        after = next(
            b for b in cfg
            if b.stmts and isinstance(b.stmts[0], ast.Assign)
        )
        # break's successor eventually reaches the block holding "after".
        reachable, frontier = set(), {dst for dst, _ in brk.succs}
        while frontier:
            bid = frontier.pop()
            if bid in reachable:
                continue
            reachable.add(bid)
            frontier.update(dst for dst, _ in cfg.block(bid).succs)
        assert after.bid in reachable


class TestStmtExpressions:
    def test_for_yields_iter_only(self):
        stmt = ast.parse("for i in xs:\n    f(i)\n").body[0]
        exprs = stmt_expressions(stmt)
        assert len(exprs) == 1 and isinstance(exprs[0], ast.Name)
        assert exprs[0].id == "xs"

    def test_nested_def_body_is_not_included(self):
        stmt = ast.parse("def g(a=default):\n    sink(a)\n").body[0]
        exprs = stmt_expressions(stmt)
        names = {n.id for e in exprs for n in ast.walk(e) if isinstance(n, ast.Name)}
        assert names == {"default"}  # the body's sink(a) is elsewhere


class _CopyAnalysis(ForwardAnalysis):
    """Track string constants assigned to names; join conflicting to '?'."""

    def transfer_stmt(self, stmt, env):
        if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
            name = stmt.targets[0].id
            if isinstance(stmt.value, ast.Constant):
                env[name] = stmt.value.value
            elif isinstance(stmt.value, ast.Name):
                env[name] = env.get(stmt.value.id)
            else:
                env.pop(name, None)

    def join_values(self, a, b):
        return a if a == b else "?"


class TestSolver:
    def entry_env_at_exit(self, src: str):
        cfg = build_cfg(ast.parse(src).body)
        envs = solve(cfg, _CopyAnalysis())
        return envs[cfg.exit]

    def test_straight_line_propagation(self):
        env = self.entry_env_at_exit("a = 'x'\nb = a\n")
        assert env == {"a": "x", "b": "x"}

    def test_join_of_conflicting_branches(self):
        env = self.entry_env_at_exit(
            "if cond:\n    a = 'x'\nelse:\n    a = 'y'\nb = a\n"
        )
        assert env["a"] == "?"

    def test_agreeing_branches_survive_join(self):
        env = self.entry_env_at_exit(
            "if cond:\n    a = 'x'\nelse:\n    a = 'x'\n"
        )
        assert env["a"] == "x"

    def test_loop_reaches_fixpoint(self):
        # The binding rotates around the loop; the solver must
        # terminate and the exit must see the joined value.
        env = self.entry_env_at_exit(
            "a = 'x'\n"
            "while cond:\n"
            "    a = 'y'\n"
            "b = a\n"
        )
        assert env["a"] == "?"
        assert env["b"] == "?"

    def test_one_sided_branch_joins_with_fallthrough(self):
        env = self.entry_env_at_exit(
            "a = 'x'\nif cond:\n    a = 'y'\n"
        )
        assert env["a"] == "?"
