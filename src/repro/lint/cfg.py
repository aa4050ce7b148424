"""Intraprocedural control-flow graphs over ``ast`` statement lists.

The dataflow rules (REP011, REP014, REP015, REP018–REP020) need more
than per-node matching: a bit offset assigned in one statement and
misused three statements later, or a bounds check that dominates a
table index, are *flow* facts.  This module builds the basic-block CFG
those analyses run on.

Design points, chosen for a lint (not a compiler):

* Blocks hold whole ``ast.stmt`` nodes.  Compound statements appear in
  the block that *evaluates* them: an ``if``/``while`` contributes its
  test as the block terminator (:attr:`BasicBlock.test`), a ``for``
  appears as a header pseudo-statement so transfer functions can bind
  its target, and the nested bodies live in their own blocks.
* Edges carry a label: ``"true"``/``"false"`` out of a conditional
  terminator, ``""`` otherwise.  Analyses use the label plus the test
  expression for branch refinement (e.g. "``v`` was compared, so it is
  bounds-checked on both arms").
* ``try`` is handled conservatively: every block created for the body
  may jump to every handler (an exception can occur anywhere), which
  over-approximates reachability but never hides a path.
* Nested ``def``/``class`` bodies are *not* traversed — they are
  separate CFGs; the enclosing graph only sees the binding statement.

The builder never fails on valid Python: anything it does not model
precisely (``match``, ``with``, ``async`` forms) degrades to
sequential or all-successor edges, erring on the side of more paths.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["BasicBlock", "CFG", "build_cfg", "stmt_expressions", "walk_own_expressions"]


@dataclass
class BasicBlock:
    """A straight-line run of statements with labeled out-edges."""

    bid: int
    stmts: list[ast.stmt] = field(default_factory=list)
    #: Branch condition evaluated after ``stmts`` (``if``/``while`` test).
    test: ast.expr | None = None
    #: ``(target block id, label)``; label is ``"true"``/``"false"``/``""``.
    succs: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class CFG:
    """Control-flow graph of one function (or module) body."""

    blocks: dict[int, BasicBlock]
    entry: int
    exit: int

    def block(self, bid: int) -> BasicBlock:
        return self.blocks[bid]

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks.values())


class _Builder:
    def __init__(self) -> None:
        self.blocks: dict[int, BasicBlock] = {}
        self._next = 0
        # (loop header bid, loop exit bid) for continue/break targets.
        self._loops: list[tuple[int, int]] = []

    def new_block(self) -> BasicBlock:
        block = BasicBlock(self._next)
        self.blocks[self._next] = block
        self._next += 1
        return block

    def edge(self, src: BasicBlock, dst: BasicBlock, label: str = "") -> None:
        pair = (dst.bid, label)
        if pair not in src.succs:
            src.succs.append(pair)

    def build(self, body: list[ast.stmt]) -> CFG:
        entry = self.new_block()
        exit_block = self.new_block()
        self._exit = exit_block
        end = self.visit_body(body, entry)
        if end is not None:
            self.edge(end, exit_block)
        return CFG(blocks=self.blocks, entry=entry.bid, exit=exit_block.bid)

    # -- statement dispatch --------------------------------------------------

    def visit_body(
        self, stmts: list[ast.stmt], current: BasicBlock | None
    ) -> BasicBlock | None:
        """Thread ``stmts`` through the graph; ``None`` means flow ended.

        Statements after a ``return``/``raise``/``break`` still get a
        (predecessor-less) block so the rules can check them — dead code
        should not be a blind spot.
        """
        for stmt in stmts:
            if current is None:
                current = self.new_block()  # unreachable but still analyzed
            current = self.visit_stmt(stmt, current)
        return current

    def visit_stmt(self, stmt: ast.stmt, cur: BasicBlock) -> BasicBlock | None:
        if isinstance(stmt, ast.If):
            return self._visit_if(stmt, cur)
        if isinstance(stmt, (ast.While,)):
            return self._visit_while(stmt, cur)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._visit_for(stmt, cur)
        if isinstance(stmt, ast.Try):
            return self._visit_try(stmt, cur)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            cur.stmts.append(stmt)  # evaluates the context managers
            return self.visit_body(stmt.body, cur)
        if isinstance(stmt, ast.Match):
            return self._visit_match(stmt, cur)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            cur.stmts.append(stmt)
            self.edge(cur, self._exit)
            return None
        if isinstance(stmt, ast.Break):
            cur.stmts.append(stmt)
            if self._loops:
                self.edge(cur, self.blocks[self._loops[-1][1]])
            return None
        if isinstance(stmt, ast.Continue):
            cur.stmts.append(stmt)
            if self._loops:
                self.edge(cur, self.blocks[self._loops[-1][0]])
            return None
        # Plain statement (incl. nested def/class, whose bodies are
        # separate CFGs): stays in the current block.
        cur.stmts.append(stmt)
        return cur

    # -- compound statements -------------------------------------------------

    def _visit_if(self, stmt: ast.If, cur: BasicBlock) -> BasicBlock | None:
        cur.test = stmt.test
        then_entry = self.new_block()
        self.edge(cur, then_entry, "true")
        then_end = self.visit_body(stmt.body, then_entry)
        if stmt.orelse:
            else_entry = self.new_block()
            self.edge(cur, else_entry, "false")
            else_end = self.visit_body(stmt.orelse, else_entry)
        else:
            else_entry = None
            else_end = None
        if then_end is None and stmt.orelse and else_end is None:
            return None
        join = self.new_block()
        if then_end is not None:
            self.edge(then_end, join)
        if stmt.orelse:
            if else_end is not None:
                self.edge(else_end, join)
        else:
            self.edge(cur, join, "false")
        return join

    def _visit_while(self, stmt: ast.While, cur: BasicBlock) -> BasicBlock:
        header = self.new_block()
        self.edge(cur, header)
        header.test = stmt.test
        exit_block = self.new_block()
        body_entry = self.new_block()
        self.edge(header, body_entry, "true")
        self.edge(header, exit_block, "false")
        self._loops.append((header.bid, exit_block.bid))
        body_end = self.visit_body(stmt.body, body_entry)
        self._loops.pop()
        if body_end is not None:
            self.edge(body_end, header)
        if stmt.orelse:
            # while/else: the else body runs on normal loop exit; model
            # it on the false edge's path into the exit block.
            else_end = self.visit_body(stmt.orelse, exit_block)
            if else_end is not None and else_end is not exit_block:
                return else_end
        return exit_block

    def _visit_for(self, stmt: ast.For | ast.AsyncFor, cur: BasicBlock) -> BasicBlock:
        header = self.new_block()
        self.edge(cur, header)
        # The For node itself is the header pseudo-statement: transfer
        # functions see it and bind ``target`` from ``iter``; its body
        # is NOT part of the block.
        header.stmts.append(stmt)
        exit_block = self.new_block()
        body_entry = self.new_block()
        self.edge(header, body_entry, "true")
        self.edge(header, exit_block, "false")
        self._loops.append((header.bid, exit_block.bid))
        body_end = self.visit_body(stmt.body, body_entry)
        self._loops.pop()
        if body_end is not None:
            self.edge(body_end, header)
        if stmt.orelse:
            else_end = self.visit_body(stmt.orelse, exit_block)
            if else_end is not None and else_end is not exit_block:
                return else_end
        return exit_block

    def _visit_try(self, stmt: ast.Try, cur: BasicBlock) -> BasicBlock | None:
        first_body = self._next
        body_end = self.visit_body(stmt.body, self.new_block())
        last_body = self._next  # ids created for the protected region
        self.edge(cur, self.blocks[first_body])

        ends: list[BasicBlock] = []
        if stmt.orelse:
            else_end = self.visit_body(
                stmt.orelse, body_end if body_end is not None else self.new_block()
            )
            if else_end is not None:
                ends.append(else_end)
        elif body_end is not None:
            ends.append(body_end)

        for handler in stmt.handlers:
            handler_entry = self.new_block()
            # An exception may surface at any point of the protected
            # region: every body block gets an edge to every handler.
            for bid in range(first_body, last_body):
                self.edge(self.blocks[bid], handler_entry)
            self.edge(cur, handler_entry)
            handler_end = self.visit_body(handler.body, handler_entry)
            if handler_end is not None:
                ends.append(handler_end)

        if stmt.finalbody:
            final_entry = self.new_block()
            for end in ends:
                self.edge(end, final_entry)
            if not ends:
                self.edge(cur, final_entry)
            return self.visit_body(stmt.finalbody, final_entry)
        if not ends:
            return None
        join = self.new_block()
        for end in ends:
            self.edge(end, join)
        return join

    def _visit_match(self, stmt: ast.Match, cur: BasicBlock) -> BasicBlock | None:
        # Evaluate the subject in the current block; each case body is
        # an independent successor (patterns/guards are not modeled).
        cur.stmts.append(ast.Expr(value=stmt.subject))
        join = self.new_block()
        self.edge(cur, join)  # no case may match
        for case in stmt.cases:
            case_entry = self.new_block()
            self.edge(cur, case_entry)
            case_end = self.visit_body(case.body, case_entry)
            if case_end is not None:
                self.edge(case_end, join)
        return join


def build_cfg(body: list[ast.stmt]) -> CFG:
    """Build the CFG of a function (or module) statement list."""
    return _Builder().build(body)


def stmt_expressions(stmt: ast.stmt) -> list[ast.expr]:
    """The expressions a statement itself evaluates.

    Deliberately shallow: nested statement bodies (loop/if/with bodies,
    nested function bodies) are *not* included — they live in other
    basic blocks (or other CFGs).  Used by the rules both for sink
    scanning and for transfer functions, so the two passes agree on
    what a block "contains".
    """
    if isinstance(stmt, ast.Expr):
        return [stmt.value]
    if isinstance(stmt, ast.Assign):
        return [stmt.value, *stmt.targets]
    if isinstance(stmt, ast.AugAssign):
        return [stmt.value, stmt.target]
    if isinstance(stmt, ast.AnnAssign):
        return [e for e in (stmt.value, stmt.target) if e is not None]
    if isinstance(stmt, ast.Return):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, ast.Raise):
        return [e for e in (stmt.exc, stmt.cause) if e is not None]
    if isinstance(stmt, ast.Assert):
        return [e for e in (stmt.test, stmt.msg) if e is not None]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]  # header form: target bound by transfer fns
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        out: list[ast.expr] = []
        for item in stmt.items:
            out.append(item.context_expr)
            if item.optional_vars is not None:
                out.append(item.optional_vars)
        return out
    if isinstance(stmt, ast.Delete):
        return list(stmt.targets)
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [
            *stmt.decorator_list,
            *stmt.args.defaults,
            *[d for d in stmt.args.kw_defaults if d is not None],
        ]
    if isinstance(stmt, ast.ClassDef):
        return [*stmt.decorator_list, *stmt.bases, *[k.value for k in stmt.keywords]]
    return []


def walk_own_expressions(stmt: ast.stmt) -> Iterator[ast.AST]:
    """Every AST node in the statement's own expressions (shallow)."""
    for expr in stmt_expressions(stmt):
        yield from ast.walk(expr)
