"""REP018 — shifts in the bit-level hot paths must be provably bounded
by the 64-bit word.

The BitReader refill protocol packs up to 64 bits into a Python int
and every consumer shifts against that word: ``chunk << bitcount``,
``bitbuf >> nbits``, ``1 << max_bits``.  A shift amount that can
exceed 64 is either a unit bug (byte count used as a bit count — the
exact class REP014 chases) or an unbounded stream-controlled value,
and Python will happily build a million-bit integer out of it.

Python integers never overflow, which is also why ports of C bit
manipulation code corrupt silently instead of crashing: a value a C
``uint32_t`` would have truncated keeps its high bits here, and the
difference only surfaces when a CRC mismatches or a Huffman table
entry collides many megabytes later (rapidgzip's changelog is a
catalogue of these).  So a ``<<`` *result* that persists — stored to
an attribute or subscript, compared, or shifted in place with ``<<=``
— must be proved to fit the word as well.  A returned result is not
an obligation: shift helpers (``return x << n``) hand a value of their
caller's width back, and the helper alone cannot bound it.

Both obligations are semantic proofs, not syntax checks: the interval
engine (:mod:`repro.lint.intervals`) evaluates every shift in
``bitio`` / ``crc32`` / ``huffman`` modules and requires a proved
upper bound ≤ 64 on the amount and ≤ 2**64 on a persisting ``<<``
result, so ``(x << n) & 0xFFFFFFFF`` or a result whose operands are
bounded passes.  Amounts are evaluated *conditioned on normal
completion* — a negative amount raises ``ValueError`` at the shift
itself, so only the upper bound needs discharging to rule out silent
blow-ups.  A shift whose amount is already unproved is reported once,
for its amount.

The proof is interprocedural: callee return intervals come from the
function summaries (``_hash3`` returning a masked ``[0, 32767]``
proves its caller's shifts), and module-level constants plus the
``deflate.constants`` spec values seed the environment.

Escape hatch: ``# lint: allow-unproved-shift(<reason>)``.
"""

from __future__ import annotations

import ast
import copy
from typing import Iterator

from repro.lint.callgraph import Project
from repro.lint.cfg import stmt_expressions
from repro.lint.findings import Finding
from repro.lint.intervals import (
    Interval,
    fmt_interval,
    run_intervals,
    walk_with_env,
)
from repro.lint.registry import ProjectRule, register
from repro.lint.summaries import interval_context

__all__ = ["ShiftWidthRule", "MAX_SHIFT"]

#: The refill word: nothing in the bit-level layer may shift further.
MAX_SHIFT = 64
#: A ``<<`` result that persists may not outgrow the refill word either.
MAX_RESULT = 1 << MAX_SHIFT

#: Modules under the shift-width obligation (basename match): the
#: three files whose correctness the 64-bit refill protocol rests on.
_SCOPE = frozenset({"bitio", "crc32", "huffman"})

_HINT = (
    "mask or clamp the amount (e.g. `n & 63`, `min(n, max_bits)`) or the "
    "result (`(x << n) & 0xFFFFFFFF`) so the interval engine can bound it, "
    "or hoist the bound into a guard the branch refinement sees "
    "(`if n > 64: raise`)"
)


def _in_scope(module_name: str) -> bool:
    return module_name.rsplit(".", 1)[-1] in _SCOPE


@register
class ShiftWidthRule(ProjectRule):
    rule_id = "REP018"
    slug = "unproved-shift"
    summary = (
        "every shift amount in bitio/crc32/huffman must have a proved "
        "upper bound <= 64 (the refill word width), and every stored, "
        "compared or in-place << result one <= 2**64"
    )
    example_bad = (
        "def refill(bitbuf, bitcount, nbytes):\n"
        "    # nbytes is a BYTE count: 8 * nbytes can reach way past 64\n"
        "    return bitbuf | (0xFF << (8 * nbytes * nbytes))\n"
    )
    example_good = (
        "def refill(bitbuf, bitcount, chunk):\n"
        "    # bitcount is seeded [0, 64]; the amount is proved <= 64\n"
        "    return bitbuf | (chunk << bitcount)\n"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        summaries = project.summaries()
        ctx = interval_context(project, summaries)
        for qualname, module, body, func in project.iter_units():
            if not _in_scope(module.name):
                continue
            module_env, resolve_interval = ctx(module, func, body)
            run = run_intervals(
                func, body,
                module_env=module_env, resolve_interval=resolve_interval,
            )
            for anchor, shift, env, position in _shifts(run):
                witness = _unproved(run, shift.right, env, MAX_SHIFT)
                if witness is not None:
                    yield self.finding(
                        module,
                        shift.right,
                        f"shift amount `{ast.unparse(shift.right)}` in "
                        f"{qualname} has no proved bound <= {MAX_SHIFT} "
                        f"(computed interval: {witness})",
                        hint=_HINT,
                        witness=witness,
                    )
                    continue
                if position is None:
                    continue
                witness = _unproved(run, shift, env, MAX_RESULT)
                if witness is not None:
                    yield self.finding(
                        module,
                        anchor,
                        f"left-shift result `{ast.unparse(anchor)}` {position} "
                        f"in {qualname} has no proved bound <= 2**{MAX_SHIFT} "
                        f"(computed interval: {witness})",
                        hint=_HINT,
                        witness=witness,
                    )


def _unproved(run, expr: ast.expr, env, bound: int) -> str | None:
    """The interval witness if ``expr`` is not proved ``<= bound``."""
    value = run.analysis.eval(expr, env)
    iv = value if isinstance(value, Interval) else None
    if iv is not None and not iv.is_empty and iv.hi is not None and iv.hi <= bound:
        return None
    return fmt_interval(iv) if iv is not None else "unknown"


def _is_lshift(node: ast.AST) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)


def _shifts(run):
    """Yield ``(anchor, shift, env, position)`` for every shift in the unit.

    ``position`` names where a ``<<`` result persists — stored to an
    attribute or subscript, compared, or shifted in place — and is
    ``None`` for a shift whose result only feeds a wider expression, a
    local or a ``return``.  An in-place ``x <<= n`` is presented as the
    shift ``x << n`` anchored at the statement.
    """
    for kind, node, env in run.replay():
        positions: dict[int, str] = {}
        if kind == "stmt":
            if isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.LShift, ast.RShift)
            ):
                target = copy.copy(node.target)
                target.ctx = ast.Load()
                shift = ast.BinOp(left=target, op=node.op, right=node.value)
                position = "shifted in place" if _is_lshift(shift) else None
                yield node, shift, env, position
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, (ast.Attribute, ast.Subscript)) for t in node.targets
            ):
                positions[id(node.value)] = "stored"
            exprs = stmt_expressions(node)
        else:
            exprs = [node]
        for expr in exprs:
            for sub, sub_env in walk_with_env(run.analysis, expr, env):
                if isinstance(sub, ast.Compare):
                    for side in [sub.left, *sub.comparators]:
                        positions[id(side)] = "compared"
                elif isinstance(sub, ast.BinOp) and isinstance(
                    sub.op, (ast.LShift, ast.RShift)
                ):
                    position = positions.get(id(sub)) if _is_lshift(sub) else None
                    yield sub, sub, sub_env, position
