"""REP009 — bit/byte offset unit confusion (dataflow).

The codebase addresses streams in two unit systems: DEFLATE blocks at
*bit* granularity (probing, resync, zran checkpoints), file I/O and
chunk planning at *byte* granularity.  Both are plain ``int``, so a
swapped unit never crashes — it silently reads from 8× the intended
position (pugz and rapidgzip both document this as the dominant bug
class of parallel gzip decoders).

The rule runs the units lattice of :mod:`repro.lint.units` over each
function's CFG and reports a *definite* unit reaching the opposite
kind of sink:

* byte-addressed sinks fed a bit value — ``f.seek(x)``, an index or
  slice bound of a byte buffer (``data[x]``), a comparison against
  ``len(buffer)``, a ``byte_offset=``/``nbytes=`` keyword;
* bit-addressed sinks fed a byte value — ``seek_bits(x)``, a
  ``start_bit=``/``bit_offset=``/``stop_bit=`` keyword, the bit-offset
  positional of ``BitReader``/``inflate``/``find_block_start``/
  ``marker_inflate``, the argument of ``bits_to_bytes``;
* direct comparison of a bit-valued and a byte-valued expression.

A value of ``bit_or_byte`` (conflicting evidence) or ``unknown`` never
fires — the rule only reports when both the value and the sink have a
definite, opposite unit.  An explicit conversion (``* 8``, ``>> 3``,
:func:`repro.units.bits_to_bytes`, a ``BitOffset(...)`` cast) changes
the unit and therefore silences the rule; that is the point.

Escape hatch: ``# lint: allow-unit-confusion(<reason>)``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.dataflow import Env
from repro.lint.module import ModuleInfo
from repro.lint.registry import register
from repro.lint.rules._flow import FlowAnalysis, FlowRule, walk_own_expressions
from repro.lint.units import (
    BYTE_BUFFER_NAMES,
    Unit,
    UnitEvaluator,
    is_bytes_annotation,
    join_units,
    unit_from_annotation,
    unit_of_name,
)

__all__ = ["UnitConfusionRule"]

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

_HINT = (
    "convert explicitly at the boundary: bits_to_bytes()/ >> 3 for "
    "bit->byte, bytes_to_bits()/ * 8 for byte->bit (see repro.units)"
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


class _UnitsAnalysis(FlowAnalysis):
    """Units transfer functions (shared with the interprocedural layer).

    ``make_evaluator`` lets :mod:`repro.lint.summaries` swap in an
    evaluator that also knows callee return units; REP009 itself stays
    strictly intraprocedural with the plain :class:`UnitEvaluator`.
    """

    def __init__(self, func: ast.FunctionDef | None, make_evaluator=None) -> None:
        self.func = func
        self.make_evaluator = make_evaluator or UnitEvaluator
        self.buffers = set(BYTE_BUFFER_NAMES)
        if func is not None:
            args = func.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if is_bytes_annotation(arg.annotation):
                    self.buffers.add(arg.arg)
            # Names assigned from byte-producing expressions anywhere in
            # the unit also count as byte buffers (syntactic, not flow).
            for node in ast.walk(func):
                if isinstance(node, ast.Assign) and self._is_bytes_expr(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.buffers.add(target.id)

    @staticmethod
    def _is_bytes_expr(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, bytes):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("bytes", "bytearray", "memoryview")
        )

    # -- dataflow ------------------------------------------------------------

    def initial_env(self) -> Env:
        env: Env = {}
        if self.func is not None:
            args = self.func.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                unit = unit_from_annotation(arg.annotation)
                if unit is not Unit.UNKNOWN:
                    env[arg.arg] = unit
        return env

    def join_values(self, a, b):
        return join_units(a, b)

    def transfer_stmt(self, stmt: ast.stmt, env: Env) -> None:
        ev = self.make_evaluator(env)
        if isinstance(stmt, ast.Assign):
            self._bind_targets(stmt.targets, stmt.value, ev, env)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            unit = unit_from_annotation(stmt.annotation)
            if unit is Unit.UNKNOWN and stmt.value is not None:
                unit = ev.unit_of(stmt.value)
            env[stmt.target.id] = unit
        elif isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
            synthetic = ast.BinOp(
                left=ast.Name(id=stmt.target.id, ctx=ast.Load()),
                op=stmt.op,
                right=stmt.value,
            )
            env[stmt.target.id] = ev.unit_of(synthetic)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            # Header form: bind the loop target from the iterable's
            # element unit (a name like ``block_start_bits`` carries it).
            element = Unit.UNKNOWN
            if isinstance(stmt.iter, ast.Name):
                element = unit_of_name(stmt.iter.id)
            elif isinstance(stmt.iter, ast.Attribute):
                element = unit_of_name(stmt.iter.attr)
            for name in self._target_names(stmt.target):
                env[name] = element
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    for name in self._target_names(item.optional_vars):
                        env.pop(name, None)

    def _bind_targets(self, targets, value, ev: UnitEvaluator, env: Env) -> None:
        unit = ev.unit_of(value)
        for target in targets:
            if isinstance(target, ast.Name):
                env[target.id] = unit
            elif isinstance(target, (ast.Tuple, ast.List)):
                elts = target.elts
                values = (
                    value.elts
                    if isinstance(value, (ast.Tuple, ast.List))
                    and len(value.elts) == len(elts)
                    else None
                )
                for i, elt in enumerate(elts):
                    if isinstance(elt, ast.Name):
                        env[elt.id] = (
                            ev.unit_of(values[i]) if values is not None else Unit.UNKNOWN
                        )

    @staticmethod
    def _target_names(target: ast.expr) -> list[str]:
        return [
            n.id
            for n in ast.walk(target)
            if isinstance(n, ast.Name)
        ]

    # -- sinks ---------------------------------------------------------------

    def check_stmt(self, stmt, env: Env):
        yield from self._scan(walk_own_expressions(stmt), env)

    def check_test(self, test, env: Env):
        yield from self._scan(ast.walk(test), env)

    def _scan(self, nodes, env: Env) -> Iterator[tuple[ast.AST, str, str]]:
        ev = self.make_evaluator(env)
        for node in nodes:
            if isinstance(node, ast.Call):
                yield from self._check_call(node, ev)
            elif isinstance(node, ast.Subscript):
                yield from self._check_subscript(node, ev)
            elif isinstance(node, ast.Compare):
                yield from self._check_compare(node, ev)

    def _check_call(self, call: ast.Call, ev: UnitEvaluator):
        name = _callable_name(call.func)
        if (
            name == "seek"
            and isinstance(call.func, ast.Attribute)
            and call.args
            and ev.unit_of(call.args[0]) is Unit.BIT
        ):
            yield (
                call,
                "bit-valued expression passed to byte-addressed seek()",
                _HINT,
            )
        if (
            name == "seek_bits"
            and call.args
            and ev.unit_of(call.args[0]) is Unit.BYTE
        ):
            yield (
                call,
                "byte-valued expression passed to bit-addressed seek_bits()",
                _HINT,
            )
        for kw in call.keywords:
            if kw.arg is None:
                continue
            unit = ev.unit_of(kw.value)
            if kw.arg in _BIT_KWARGS and unit is Unit.BYTE:
                yield (
                    call,
                    f"byte-valued expression passed to bit-addressed "
                    f"parameter {kw.arg}=",
                    _HINT,
                )
            elif kw.arg in _BYTE_KWARGS and unit is Unit.BIT:
                yield (
                    call,
                    f"bit-valued expression passed to byte-addressed "
                    f"parameter {kw.arg}=",
                    _HINT,
                )
        pos = _BIT_POSITIONALS.get(name)
        if pos is not None and len(call.args) > pos:
            if ev.unit_of(call.args[pos]) is Unit.BYTE:
                yield (
                    call,
                    f"byte-valued expression passed to bit-offset "
                    f"argument {pos} of {name}()",
                    _HINT,
                )
        pos = _BYTE_POSITIONALS.get(name)
        if pos is not None and len(call.args) > pos:
            if ev.unit_of(call.args[pos]) is Unit.BIT:
                yield (
                    call,
                    f"bit-valued expression passed to byte-offset "
                    f"argument {pos} of {name}()",
                    _HINT,
                )

    def _check_subscript(self, node: ast.Subscript, ev: UnitEvaluator):
        value = node.value
        if isinstance(value, ast.Name):
            is_buffer = value.id in self.buffers
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
        for bound in bounds:
            if bound is not None and ev.unit_of(bound) is Unit.BIT:
                yield (
                    node,
                    "bit-valued expression used to index a byte buffer",
                    _HINT,
                )
                return

    def _check_compare(self, node: ast.Compare, ev: UnitEvaluator):
        sides = [node.left, *node.comparators]
        for (a, b), op in zip(zip(sides, sides[1:]), node.ops):
            if not isinstance(op, _CMP_OPS):
                continue
            ua, ub = ev.unit_of(a), ev.unit_of(b)
            for x, ux, y, uy in ((a, ua, b, ub), (b, ub, a, ua)):
                if ux is Unit.BIT and _is_len_of_buffer(y, self.buffers):
                    yield (
                        node,
                        "bit-valued expression compared against len() of "
                        "a byte buffer",
                        _HINT,
                    )
                    return
            if {ua, ub} == {Unit.BIT, Unit.BYTE}:
                yield (
                    node,
                    "comparison mixes a bit-valued and a byte-valued "
                    "expression",
                    _HINT,
                )
                return


@register
class UnitConfusionRule(FlowRule):
    rule_id = "REP009"
    slug = "unit-confusion"
    summary = (
        "bit-valued expressions must not reach byte-addressed sinks "
        "(seek, buffer indexing, len comparisons) or vice versa"
    )
    example_bad = (
        "def locate(fh, reader):\n"
        "    pos = reader.tell_bits()   # bit offset\n"
        "    fh.seek(pos)               # seek() is byte-addressed\n"
    )
    example_good = (
        "def locate(fh, reader):\n"
        "    pos = reader.tell_bits() >> 3   # explicit bit -> byte\n"
        "    fh.seek(pos)\n"
    )

    def make_analysis(self, module: ModuleInfo, func) -> FlowAnalysis:
        return _UnitsAnalysis(func)
