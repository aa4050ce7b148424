"""Forward worklist dataflow solver over :mod:`repro.lint.cfg` graphs.

A tiny, rule-agnostic fixpoint engine: an analysis supplies the initial
environment, a per-statement transfer function and (optionally) an edge
refinement, and :func:`solve` returns the environment holding at entry
to every basic block.

Environments map variable names to abstract values.  The solver knows
nothing about the value domain beyond ``join_values``: lattices are
expected to be small and finite (units, taint flags), so plain
iteration to fixpoint terminates without widening — each variable can
only climb its lattice a bounded number of times, and the join is
monotone by contract.

Analyses over *infinite-height* domains (the interval lattice of
:mod:`repro.lint.intervals`) additionally implement ``widen_values``.
When that hook is present, :func:`solve` applies widening on joins
into loop heads (targets of DFS back edges), delayed by a couple of
visits so short ladders settle exactly, and then runs a bounded
narrowing phase: two synchronous decreasing sweeps recomputing every
block's entry environment from its predecessors.  At a post-fixpoint
``x`` the transfer ``F`` satisfies ``F(x) ⊑ x``, so each sweep shrinks
the solution while staying above the least fixpoint — loop-exit bounds
widened to a threshold narrow back to the exact branch condition.

A variable missing from an environment means "no information"; joins
pass ``None`` for the missing side and the analysis decides (for the
bug-finding lattices here, information survives a join against a path
that never touched the variable — we prefer catching the bug on the
path that creates it over proving facts on all paths).
"""

from __future__ import annotations

import ast
from typing import Any, Dict

from repro.lint.cfg import CFG

__all__ = [
    "Env",
    "ForwardAnalysis",
    "solve",
    "transfer_block",
    "replay_blocks",
    "join_must_flag",
]

Env = Dict[str, Any]

#: Safety valve for pathological graphs; far above any real function.
_MAX_ITERATIONS = 100_000


class ForwardAnalysis:
    """Interface a dataflow rule implements.

    Subclasses override the three hooks below.  ``transfer_stmt`` and
    ``refine_edge`` mutate the environment in place (the solver hands
    them a private copy).
    """

    def initial_env(self) -> Env:
        """Environment at function entry (e.g. parameter seeds)."""
        return {}

    def transfer_stmt(self, stmt: ast.stmt, env: Env) -> None:
        """Apply one statement's effect to ``env``."""

    def refine_edge(self, test: ast.expr, label: str, env: Env) -> None:
        """Refine ``env`` along a conditional edge.

        ``test`` is the branch condition of the source block, ``label``
        is ``"true"`` or ``"false"``.  Default: no refinement.
        """

    def join_values(self, a: Any, b: Any) -> Any:
        """Join two abstract values; either side may be ``None`` (no info)."""
        if a == b:
            return a
        if a is None:
            return b
        if b is None:
            return a
        return None


def _join_envs(analysis: ForwardAnalysis, dst: Env | None, src: Env) -> tuple[Env, bool]:
    """``dst ∨ src``; returns (joined, changed-relative-to-dst)."""
    if dst is None:
        return dict(src), True
    out = dict(dst)
    changed = False
    for name in set(dst) | set(src):
        joined = analysis.join_values(dst.get(name), src.get(name))
        if joined is None:
            if name in out:
                del out[name]
                changed = True
        elif out.get(name) != joined:
            out[name] = joined
            changed = True
    return out, changed


def transfer_block(analysis: ForwardAnalysis, block, env: Env) -> Env:
    """Push ``env`` through every statement of ``block`` (fresh copy)."""
    env = dict(env)
    for stmt in block.stmts:
        analysis.transfer_stmt(stmt, env)
    return env


def join_must_flag(a: Any, b: Any) -> Any:
    """All-paths join for boolean facts (dominance-style analyses).

    A fact represented as ``True``-present / missing survives a join
    only when *both* sides carry it: returning ``None`` makes the
    solver drop the key, so "a budget check dominates this point" holds
    exactly when it holds on every incoming path.  Used by the
    interprocedural summaries (REP017) on top of the same solver the
    may-analyses use.
    """
    if a is True and b is True:
        return True
    return None


def replay_blocks(cfg: CFG, analysis: ForwardAnalysis, envs_in: dict[int, Env]):
    """Yield ``("stmt", stmt, env)`` / ``("test", test, env)`` in replay order.

    Walks every block from its solved entry environment, yielding each
    statement with the environment holding *before* its transfer (a
    sink in ``x = f(x)`` must see the pre-assignment binding of ``x``),
    then the block's branch test under the post-block environment.
    Shared by the intraprocedural REP011 driver and the summary
    builder, so both phases agree on what an environment "at" a
    statement means.
    """
    for block in cfg:
        env = dict(envs_in.get(block.bid, {}))
        for stmt in block.stmts:
            yield "stmt", stmt, env
            analysis.transfer_stmt(stmt, env)
        if block.test is not None:
            yield "test", block.test, env


def _loop_heads(cfg: CFG) -> set[int]:
    """Targets of back edges (iterative DFS): where widening applies."""
    heads: set[int] = set()
    color: dict[int, int] = {}  # 0/absent = white, 1 = on stack, 2 = done
    stack: list[tuple[int, int]] = [(cfg.entry, 0)]
    while stack:
        bid, idx = stack.pop()
        if idx == 0:
            if color.get(bid) == 2:
                continue
            color[bid] = 1
        succs = cfg.block(bid).succs
        while idx < len(succs):
            succ = succs[idx][0]
            idx += 1
            state = color.get(succ, 0)
            if state == 1:
                heads.add(succ)
            elif state == 0:
                stack.append((bid, idx))
                stack.append((succ, 0))
                break
        else:
            color[bid] = 2
    return heads


#: Joins into a loop head before widening kicks in — lets short
#: constant ladders (``i = 0; i += 1`` once) settle exactly first.
_WIDEN_DELAY = 2

#: Cap on decreasing sweeps after the widened fixpoint.  Each sweep is
#: sound on its own (see module docstring), so the count is a precision
#: knob, not a correctness one; sweeps stop early once stable.  The cap
#: covers the longest acyclic improvement chain of a realistic unit.
_NARROW_PASSES = 8


def _narrow_sweep(
    cfg: CFG, analysis: ForwardAnalysis, envs_in: dict[int, Env]
) -> dict[int, Env]:
    """One synchronous decreasing sweep over the reached blocks."""
    new_in: dict[int, Env] = {cfg.entry: analysis.initial_env()}
    for block in cfg:
        if block.bid not in envs_in:
            continue  # unreached: nothing flows out of it
        env_out = transfer_block(analysis, block, envs_in[block.bid])
        for succ, label in block.succs:
            edge_env = env_out
            if block.test is not None and label in ("true", "false"):
                edge_env = dict(env_out)
                analysis.refine_edge(block.test, label, edge_env)
            new_in[succ], _ = _join_envs(analysis, new_in.get(succ), edge_env)
    return new_in


def solve(cfg: CFG, analysis: ForwardAnalysis) -> dict[int, Env]:
    """Fixpoint: environment at *entry* of each block.

    Blocks never reached from the entry (dead code) keep an empty
    environment — rules still scan them for sinks, falling back to
    their name/annotation seeds.

    Analyses exposing ``widen_values(old, new)`` get loop-head widening
    plus a bounded narrowing phase; finite-lattice analyses are solved
    exactly as before.
    """
    widen = getattr(analysis, "widen_values", None)
    heads = _loop_heads(cfg) if widen is not None else set()
    visits: dict[int, int] = {}
    envs_in: dict[int, Env] = {cfg.entry: analysis.initial_env()}
    worklist: list[int] = [cfg.entry]
    iterations = 0
    while worklist:
        iterations += 1
        if iterations > _MAX_ITERATIONS:  # pragma: no cover - safety valve
            break
        bid = worklist.pop()
        block = cfg.block(bid)
        env_out = transfer_block(analysis, block, envs_in.get(bid, {}))
        for succ, label in block.succs:
            edge_env = env_out
            if block.test is not None and label in ("true", "false"):
                edge_env = dict(env_out)
                analysis.refine_edge(block.test, label, edge_env)
            old = envs_in.get(succ)
            joined, changed = _join_envs(analysis, old, edge_env)
            if changed and succ in heads and old is not None:
                visits[succ] = visits.get(succ, 0) + 1
                if visits[succ] >= _WIDEN_DELAY:
                    for name, value in joined.items():
                        if name in old:
                            joined[name] = widen(old[name], value)
                    changed = joined != old
            if changed:
                envs_in[succ] = joined
                if succ not in worklist:
                    worklist.append(succ)
    if widen is not None:
        for _ in range(_NARROW_PASSES):
            narrowed = _narrow_sweep(cfg, analysis, envs_in)
            if narrowed == envs_in:
                break
            envs_in = narrowed
    for bid in cfg.blocks:
        envs_in.setdefault(bid, {})
    return envs_in
