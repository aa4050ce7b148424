"""REP019 — window/table/output subscripts on decode hot paths must be
provably in range.

Kerbiriou & Chikhi's correctness argument for parallel decompression
rests on the DEFLATE window discipline: every back-reference reaches at
most 32768 bytes back, every decode-table lookup stays inside the
``1 << max_bits`` table, every hash-chain probe stays inside the
``_HASH_SIZE``/window-mask arrays.  An index that silently escapes
those ranges in Python does not segfault — it raises ``IndexError``
mid-stream or, worse for negative indices, *wraps around* and reads
the wrong history byte, which corrupts output without any error.

This rule makes those ranges proof obligations.  For each unit in the
hot-path modules (``inflate`` / ``marker_inflate`` / ``lz77``), the
interval engine evaluates every judged subscript index and requires:

* decode tables (``*table``) and hash arrays (``head`` / ``prev``):
  index ∈ ``[0, 32767]`` — the largest table the spec permits
  (``1 << MAX_CODE_BITS`` entries, resp. the window-sized hash side
  arrays).  The per-table relational bound (``peek(max_bits)`` against
  *this* table's size) is out of reach for a non-relational domain and
  stays covered by the REP015 pragma discipline;
* the output buffer ``out``: index ∈ ``[-32768, -1]`` — loads from
  ``out`` in the decode loops are pure back-references, and the
  negative-index form both proves the window bound and avoids the
  ``len(out) - distance`` arithmetic the domain cannot relate;
* constant spec tables (``LENGTH_BASE`` & friends): index ∈
  ``[0, len - 1]`` with the exact table length.

Slices and store targets are not judged (a Python store cannot read
stale memory), and containers outside the list above are skipped —
the rule is an allow-list of the structures whose bounds the paper's
argument needs, not a generic bounds checker.

Escape hatch: ``# lint: allow-unproved-index(<reason>)``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.callgraph import Project
from repro.lint.findings import Finding
from repro.lint.intervals import (
    Interval,
    SeqVal,
    TableVal,
    fmt_interval,
    iter_unit_expressions,
    run_intervals,
)
from repro.lint.registry import ProjectRule, register
from repro.lint.summaries import interval_context

__all__ = ["IndexBoundsRule"]

#: Modules under the index-bound obligation (basename match).
_SCOPE = frozenset({"inflate", "marker_inflate", "lz77"})

#: ``1 << MAX_CODE_BITS`` entries is the largest legal decode table;
#: the hash head/prev arrays are window-sized by construction.
_TABLE_RANGE = Interval(0, 32767)
#: Loads from the output buffer are back-references within the window.
_BACKREF_RANGE = Interval(-32768, -1)

_HINT = (
    "clamp the index against a spec constant (`min(i, C.MAX_MATCH)`), "
    "mask it (`i & _WMASK`), use the negative-index back-reference form "
    "(`out[-distance]`), or guard it so branch refinement proves the range"
)


def _in_scope(module_name: str) -> bool:
    return module_name.rsplit(".", 1)[-1] in _SCOPE


def _within(iv: Interval, bound: Interval) -> bool:
    if iv.is_empty:
        return True  # unreachable program point
    if iv.lo is None or iv.hi is None:
        return False
    return bound.contains(iv.lo) and bound.contains(iv.hi)


def _terminal_name(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _is_table_token(name: str) -> bool:
    return name == "table" or name.endswith("_table")


@register
class IndexBoundsRule(ProjectRule):
    rule_id = "REP019"
    slug = "unproved-index"
    summary = (
        "window/table/output subscripts in inflate/marker_inflate/lz77 "
        "must have proved in-range indices"
    )
    example_bad = (
        "def emit_backref(out, distance, length):\n"
        "    # distance is unbounded here: the load can escape the window\n"
        "    for _ in range(length):\n"
        "        out.append(out[len(out) - distance])\n"
    )
    example_good = (
        "def emit_backref(out, distance, length):\n"
        "    if distance > 32768:\n"
        "        raise BackrefError('beyond window')\n"
        "    for _ in range(length):\n"
        "        out.append(out[-distance])   # proved in [-32768, -1]\n"
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
            for stmt, node, env in iter_unit_expressions(run):
                if not isinstance(node, ast.Subscript):
                    continue
                if not isinstance(node.ctx, ast.Load):
                    continue
                if isinstance(node.slice, ast.Slice):
                    continue
                bound, what = self._obligation(run, node, env)
                if bound is None:
                    continue
                value = run.analysis.eval(node.slice, env)
                iv = value if isinstance(value, Interval) else None
                if iv is not None and _within(iv, bound):
                    continue
                witness = fmt_interval(iv) if iv is not None else "unknown"
                yield self.finding(
                    module,
                    node,
                    f"index `{ast.unparse(node.slice)}` into {what} in "
                    f"{qualname} has no proved range within "
                    f"{fmt_interval(bound)} (computed interval: {witness})",
                    hint=_HINT,
                    witness=witness,
                )

    def _obligation(
        self, run, node: ast.Subscript, env
    ) -> tuple[Interval | None, str]:
        """(required index range, human label) for a judged container."""
        name = _terminal_name(node.value)
        container = run.analysis.eval(node.value, env)
        if isinstance(container, TableVal) or _is_table_token(name):
            return _TABLE_RANGE, f"decode table `{ast.unparse(node.value)}`"
        if name in ("head", "prev"):
            return _TABLE_RANGE, f"hash array `{name}`"
        if name == "out":
            return _BACKREF_RANGE, "the output buffer `out`"
        if name == "window":
            return Interval(-32768, 32767), "the window buffer"
        if isinstance(container, SeqVal) and container.const and (
            container.length.lo is not None
            and container.length.lo == container.length.hi
        ):
            return (
                Interval(0, container.length.lo - 1),
                f"spec table `{ast.unparse(node.value)}`",
            )
        return None, ""
