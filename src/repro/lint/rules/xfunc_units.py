"""REP014 — bit/byte offset unit confusion, within and across functions.

The codebase addresses streams in two unit systems: DEFLATE blocks at
*bit* granularity (probing, resync, zran checkpoints), file I/O and
chunk planning at *byte* granularity.  Both are plain ``int``, so a
swapped unit never crashes — it silently reads from 8× the intended
position (pugz and rapidgzip both document this as the dominant bug
class of parallel gzip decoders).

The rule runs the units lattice of :mod:`repro.lint.units` over each
function's CFG (:class:`repro.lint.summaries.UnitsSummaryAnalysis`)
and reports a *definite* unit reaching the opposite kind of sink:

* a *resolved* project call — an argument must not land on a parameter
  whose summary says the opposite unit, whether the parameter's unit
  comes from a ``BitOffset``/``ByteOffset`` annotation or its name;
* byte-addressed sinks fed a bit value — ``f.seek(x)``, an index or
  slice bound of a byte buffer (``data[x]``), a comparison against
  ``len(buffer)``, a ``byte_offset=``/``nbytes=`` keyword;
* bit-addressed sinks fed a byte value — ``seek_bits(x)``, a
  ``start_bit=``/``bit_offset=``/``stop_bit=`` keyword, the bit-offset
  positional of ``BitReader``/``inflate``/``find_block_start``/
  ``marker_inflate``, the argument of ``bits_to_bytes``;
* direct comparison of a bit-valued and a byte-valued expression.

The unit evaluator consults callee summaries, so a helper returning
``reader.tell_bits()`` makes ``helper()`` a bit-valued expression — at
any call depth, because summaries are computed bottom-up over the
call-graph SCCs (recursion converges at the fixpoint).  A call reported
at the project boundary is not reported again by the local sinks.

A value of ``bit_or_byte`` (conflicting evidence) or ``unknown`` never
fires, nor does a call the resolver cannot pin to exactly one project
function: silence over guessing.  An explicit conversion (``* 8``,
``>> 3``, :func:`repro.units.bits_to_bytes`, a ``BitOffset(...)``
cast) changes the unit and therefore silences the rule.

Escape hatch: ``# lint: allow-cross-unit-confusion(<reason>)``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.callgraph import MODULE_UNIT, Project
from repro.lint.cfg import build_cfg, walk_own_expressions
from repro.lint.dataflow import replay_blocks, solve
from repro.lint.findings import Finding
from repro.lint.registry import ProjectRule, register
from repro.lint.summaries import UnitsSummaryAnalysis, _map_args, unit_resolver
from repro.lint.units import (
    BYTE_BUFFER_NAMES,
    Unit,
    UnitEvaluator,
    is_bytes_annotation,
)

__all__ = ["CrossUnitConfusionRule"]

_HINT = (
    "convert explicitly: bits_to_bytes()/ >> 3 for bit->byte, "
    "bytes_to_bits()/ * 8 for byte->bit (see repro.units), or annotate "
    "the parameter with the unit it really has (BitOffset/ByteOffset)"
)

_OPPOSITE = {Unit.BIT: Unit.BYTE, Unit.BYTE: Unit.BIT}

_CMP_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)

#: Keyword parameters that are bit-addressed across the codebase.
_BIT_KWARGS = {
    "start_bit", "bit_offset", "stop_bit", "end_bit", "sync_bit",
    "resync_bit", "max_search_bits", "max_resync_search_bits", "nbits",
}
#: Keyword parameters that are byte-addressed.
_BYTE_KWARGS = {"byte_offset", "start_byte", "end_byte", "nbytes", "span"}

#: ``callable name -> positional index`` of a bit-offset parameter.
_BIT_POSITIONALS = {
    "BitReader": 1,
    "find_block_start": 1,
    "inflate": 1,
    "inflate_bytes": 1,
    "marker_inflate": 1,
    "probe_block": 1,
    "prescreen": 1,
    "screen_candidates": 1,
    "seek_bits": 0,
    "bits_to_bytes": 0,
    "intra_byte_bits": 0,
    "ceil_bits_to_bytes": 0,
}
#: Same, for byte-offset parameters.
_BYTE_POSITIONALS = {"bytes_to_bits": 0}


@register
class CrossUnitConfusionRule(ProjectRule):
    rule_id = "REP014"
    slug = "cross-unit-confusion"
    summary = (
        "a bit-valued expression (at any call depth) must not reach a "
        "byte-addressed sink or byte-unit parameter, or vice versa"
    )
    example_bad = (
        "def resync_origin(reader):\n"
        "    return reader.tell_bits()      # bit offset\n"
        "\n"
        "def plan(reader, nbytes_done: int):\n"
        "    return split_chunk(resync_origin(reader))   # byte parameter\n"
        "\n"
        "def split_chunk(start_byte):\n"
        "    return start_byte // 2\n"
    )
    example_good = (
        "def resync_origin(reader):\n"
        "    return reader.tell_bits()\n"
        "\n"
        "def plan(reader, nbytes_done: int):\n"
        "    return split_chunk(resync_origin(reader) >> 3)  # bit -> byte\n"
        "\n"
        "def split_chunk(start_byte):\n"
        "    return start_byte // 2\n"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        summaries = project.summaries()
        resolver_factory = unit_resolver(project, summaries)
        for qualname, module, body, func in project.iter_units():
            resolve = resolver_factory(module, func, body)
            analysis = UnitsSummaryAnalysis(func, resolve)
            buffers = _byte_buffers(func)
            where = qualname.rsplit(".", 1)[-1]
            where = "module level" if where == MODULE_UNIT else f"{where}()"
            cfg = build_cfg(body)
            envs_in = solve(cfg, analysis)
            for kind, node, env in replay_blocks(cfg, analysis, envs_in):
                nodes = (
                    walk_own_expressions(node) if kind == "stmt" else ast.walk(node)
                )
                ev = analysis.evaluator(env)
                for sub in nodes:
                    if isinstance(sub, ast.Call):
                        crossed = list(_check_project_call(where, sub, ev, resolve))
                        hits = crossed or _check_call(sub, ev)
                    elif isinstance(sub, ast.Subscript):
                        hits = _check_subscript(sub, ev, buffers)
                    elif isinstance(sub, ast.Compare):
                        hits = _check_compare(sub, ev, buffers)
                    else:
                        continue
                    for message in hits:
                        yield self.finding(module, sub, message, hint=_HINT)


def _byte_buffers(func: ast.FunctionDef | None) -> set[str]:
    """Names treated as byte buffers in one unit (syntactic, not flow)."""
    buffers = set(BYTE_BUFFER_NAMES)
    if func is None:
        return buffers
    args = func.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if is_bytes_annotation(arg.annotation):
            buffers.add(arg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and _is_bytes_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    buffers.add(target.id)
    return buffers


def _is_bytes_expr(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, bytes):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("bytes", "bytearray", "memoryview")
    )


def _callable_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _is_len_of_buffer(node: ast.expr, buffers: set[str]) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "len"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id in buffers
    )


def _check_project_call(where: str, call: ast.Call, ev: UnitEvaluator, resolve):
    """Arguments landing on an opposite-unit parameter of a project function."""
    hit = resolve(call)
    if hit is None:
        return
    info, summary = hit
    for param, arg in _map_args(info, summary, call):
        declared = summary.param_units.get(param)
        if declared is None:
            continue
        declared_unit = Unit(declared)
        arg_unit = ev.unit_of(arg)
        if arg_unit is _OPPOSITE.get(declared_unit):
            yield (
                f"{arg_unit.value}-valued expression passed to "
                f"{declared_unit.value}-unit parameter {param!r} of "
                f"{summary.qualname}() from {where}"
            )


def _check_call(call: ast.Call, ev: UnitEvaluator):
    """seek()/seek_bits(), unit keywords and unit positionals."""
    name = _callable_name(call.func)
    if (
        name == "seek"
        and isinstance(call.func, ast.Attribute)
        and call.args
        and ev.unit_of(call.args[0]) is Unit.BIT
    ):
        yield "bit-valued expression passed to byte-addressed seek()"
    if name == "seek_bits" and call.args and ev.unit_of(call.args[0]) is Unit.BYTE:
        yield "byte-valued expression passed to bit-addressed seek_bits()"
    for kw in call.keywords:
        if kw.arg is None:
            continue
        unit = ev.unit_of(kw.value)
        if kw.arg in _BIT_KWARGS and unit is Unit.BYTE:
            yield f"byte-valued expression passed to bit-addressed parameter {kw.arg}="
        elif kw.arg in _BYTE_KWARGS and unit is Unit.BIT:
            yield f"bit-valued expression passed to byte-addressed parameter {kw.arg}="
    for table, wrong, kind in (
        (_BIT_POSITIONALS, Unit.BYTE, "bit"),
        (_BYTE_POSITIONALS, Unit.BIT, "byte"),
    ):
        pos = table.get(name)
        if pos is not None and len(call.args) > pos:
            if ev.unit_of(call.args[pos]) is wrong:
                yield (
                    f"{wrong.value}-valued expression passed to {kind}-offset "
                    f"argument {pos} of {name}()"
                )


def _check_subscript(node: ast.Subscript, ev: UnitEvaluator, buffers: set[str]):
    value = node.value
    if isinstance(value, ast.Name):
        is_buffer = value.id in buffers
    elif isinstance(value, ast.Attribute):
        is_buffer = value.attr in BYTE_BUFFER_NAMES
    else:
        return
    if not is_buffer:
        return
    bounds = (
        [node.slice.lower, node.slice.upper]
        if isinstance(node.slice, ast.Slice)
        else [node.slice]
    )
    if any(b is not None and ev.unit_of(b) is Unit.BIT for b in bounds):
        yield "bit-valued expression used to index a byte buffer"


def _check_compare(node: ast.Compare, ev: UnitEvaluator, buffers: set[str]):
    sides = [node.left, *node.comparators]
    for (a, b), op in zip(zip(sides, sides[1:]), node.ops):
        if not isinstance(op, _CMP_OPS):
            continue
        ua, ub = ev.unit_of(a), ev.unit_of(b)
        if (ua is Unit.BIT and _is_len_of_buffer(b, buffers)) or (
            ub is Unit.BIT and _is_len_of_buffer(a, buffers)
        ):
            yield "bit-valued expression compared against len() of a byte buffer"
            return
        if {ua, ub} == {Unit.BIT, Unit.BYTE}:
            yield "comparison mixes a bit-valued and a byte-valued expression"
            return
