"""Integer interval abstract interpretation over the lint CFG.

The unit, taint and budget rules reason about *kinds* of values — bit vs
byte, tainted vs clean, budget-checked vs not — but the decode hot
paths are correct because of *quantitative* invariants the DEFLATE
spec fixes: match length ≤ 258, window distance ≤ 32768, Huffman code
lengths ≤ 15, shift widths bounded by the 64-bit refill word.  This
module adds the numeric domain that lets the analyzer prove those
bounds instead of trusting pragma prose.

The domain is the classic integer interval lattice ``[lo, hi]`` with
``None`` endpoints for ±∞, ⊥ for infeasible paths and ``[-∞, +∞]`` as
⊤.  It runs on the existing CFG + forward worklist solver
(:mod:`repro.lint.dataflow`), which applies *widening* at loop heads
(threshold ladder built from the DEFLATE spec constants, so bounds
land on spec values instead of jumping straight to ∞) followed by a
bounded *narrowing* pass that recovers exact loop exit bounds.

Transfer functions cover integer arithmetic, the masking idioms of the
bit-level code (``x & (N - 1)``, ``x % N``, ``x >> k``, ``x & 7``),
``min``/``max`` clamps, ``len()`` of sized locals, ``reader.read(n)``
(→ ``[0, 2^n - 1]``), sequence repeats and branch-condition refinement
on the true/false CFG edges.  Constants are seeded from
:mod:`repro.deflate.constants` (ints, tables, NumPy LUTs), from simple
module-level assignments of the module under analysis, and from a
small set of *trusted name seeds* — documented domain invariants tied
to naming conventions (``nbits ∈ [0, 64]``, ``max_bits ∈ [1, 15]``),
the numeric analogue of the unit-name heuristics in
:mod:`repro.lint.units`.

Soundness note: values are tracked *conditioned on normal completion*.
A negative shift amount or a ``None`` operand raises at runtime, so
``x >> k`` may assume ``k ≥ 0`` — the proof obligations REP018–REP020
discharge are upper bounds ("cannot silently exceed the spec limit"),
not absence of exceptions, which is exactly the property the decode
paths need.

Interprocedurally, :mod:`repro.lint.summaries` runs this analysis per
function during the bottom-up SCC fixpoint, records the return-value
interval in each :class:`FunctionSummary`, and feeds callee intervals
back in through ``resolve_interval`` — so ``h = _hash3(data, i)``
inherits ``[0, 32767]`` from the callee's masked return.
"""

from __future__ import annotations

import ast
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.lint.cfg import CFG, build_cfg, stmt_expressions
from repro.lint.dataflow import Env, ForwardAnalysis, replay_blocks, solve

__all__ = [
    "Interval",
    "SeqVal",
    "BytesVal",
    "TupleVal",
    "TableVal",
    "TOP",
    "BOTTOM",
    "IntervalAnalysis",
    "IntervalRun",
    "run_intervals",
    "module_constant_env",
    "walk_with_env",
    "spec_constants",
    "spec_thresholds",
    "spec_cap_for",
    "fmt_interval",
    "analyze_source",
    "joined_name_intervals",
]


# ---------------------------------------------------------------------------
# the interval lattice


@dataclass(frozen=True)
class Interval:
    """``[lo, hi]`` with ``None`` endpoints meaning -∞ / +∞."""

    lo: int | None
    hi: int | None

    @property
    def is_empty(self) -> bool:
        return self.lo is not None and self.hi is not None and self.lo > self.hi

    @property
    def is_point(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def contains(self, value: int) -> bool:
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def join(self, other: "Interval") -> "Interval":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return Interval(lo, hi)

    def meet(self, other: "Interval") -> "Interval":
        lo = self.lo if other.lo is None else (
            other.lo if self.lo is None else max(self.lo, other.lo)
        )
        hi = self.hi if other.hi is None else (
            other.hi if self.hi is None else min(self.hi, other.hi)
        )
        return Interval(lo, hi)

    def widen(self, other: "Interval", thresholds: tuple[int, ...]) -> "Interval":
        """Threshold widening: an escaping bound jumps to the next spec
        constant in its direction (then to ∞), so loop invariants land
        on DEFLATE limits instead of overshooting immediately."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        lo: int | None
        hi: int | None
        if other.lo is None or self.lo is None:
            lo = None
        elif other.lo < self.lo:
            i = bisect_right(thresholds, other.lo)
            lo = thresholds[i - 1] if i > 0 else None
        else:
            lo = self.lo
        if other.hi is None or self.hi is None:
            hi = None
        elif other.hi > self.hi:
            i = bisect_left(thresholds, other.hi)
            hi = thresholds[i] if i < len(thresholds) else None
        else:
            hi = self.hi
        return Interval(lo, hi)


TOP = Interval(None, None)
BOTTOM = Interval(1, 0)


def fmt_interval(iv: Interval) -> str:
    lo = "-inf" if iv.lo is None else str(iv.lo)
    hi = "+inf" if iv.hi is None else str(iv.hi)
    return f"[{lo}, {hi}]"


# ---------------------------------------------------------------------------
# non-scalar tracked values


@dataclass(frozen=True)
class SeqVal:
    """A sized sequence: element hull + length interval.

    ``const`` marks sequences of constant provenance (spec tables,
    literal tuples) — the only ones REP019 judges index bounds against,
    since their length is a fixed fact rather than a running estimate.
    """

    elem: Interval | None
    length: Interval
    const: bool = False


@dataclass(frozen=True)
class BytesVal:
    """bytes/bytearray-typed value: elements are always ``[0, 255]``."""

    length: Interval


@dataclass(frozen=True)
class TupleVal:
    """Fixed-arity tuple with per-element intervals (``None`` = unknown)."""

    elems: tuple


@dataclass(frozen=True)
class TableVal:
    """A canonical Huffman decode table (``(code_length, symbol)`` entries)."""


_BYTE = Interval(0, 255)
#: Decode-table entries are ``(code_length, symbol)`` pairs built by
#: ``HuffmanDecoder.__init__``: lengths ∈ [0, 15] (guarded against
#: MAX_CODE_BITS), symbols index an alphabet of ≤ 288 codes.
_TABLE_ENTRY = TupleVal((Interval(0, 15), Interval(0, 287)))


def _hull(value) -> Interval:
    """Collapse any tracked value to a scalar interval (⊤ if unknown)."""
    if isinstance(value, Interval):
        return value
    if isinstance(value, TupleVal):
        out = BOTTOM
        for e in value.elems:
            out = out.join(e if isinstance(e, Interval) else TOP)
        return out if not out.is_empty else TOP
    if isinstance(value, BytesVal):
        return _BYTE
    if isinstance(value, SeqVal):
        return value.elem if value.elem is not None else TOP
    return TOP


def _elem_of(value) -> Interval | None:
    """Element interval when iterating ``value`` (None = unknown)."""
    if isinstance(value, SeqVal):
        return value.elem
    if isinstance(value, BytesVal):
        return _BYTE
    if isinstance(value, TupleVal):
        return _hull(value)
    return None


# ---------------------------------------------------------------------------
# interval arithmetic


def _neg(a: Interval) -> Interval:
    return Interval(
        None if a.hi is None else -a.hi,
        None if a.lo is None else -a.lo,
    )


def _add(a: Interval, b: Interval) -> Interval:
    lo = None if a.lo is None or b.lo is None else a.lo + b.lo
    hi = None if a.hi is None or b.hi is None else a.hi + b.hi
    return Interval(lo, hi)


def _sub(a: Interval, b: Interval) -> Interval:
    return _add(a, _neg(b))


def _mul(a: Interval, b: Interval) -> Interval:
    ends = (a.lo, a.hi, b.lo, b.hi)
    if all(e is not None for e in ends):
        prods = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
        return Interval(min(prods), max(prods))
    if a.lo is not None and a.lo >= 0 and b.lo is not None and b.lo >= 0:
        hi = None if a.hi is None or b.hi is None else a.hi * b.hi
        return Interval(a.lo * b.lo, hi)
    return TOP


def _floordiv(a: Interval, b: Interval) -> Interval:
    if b.lo is None or b.lo < 1:
        return TOP  # divisor sign unknown: give up rather than guess
    divisors = [d for d in (b.lo, b.hi) if d is not None]
    unbounded_divisor = b.hi is None
    lo: int | None
    hi: int | None
    if a.lo is None:
        lo = None
    else:
        cands = [a.lo // d for d in divisors]
        if unbounded_divisor:
            cands.append(0 if a.lo >= 0 else -1)
        lo = min(cands)
    if a.hi is None:
        hi = None
    else:
        cands = [a.hi // d for d in divisors]
        if unbounded_divisor:
            cands.append(0 if a.hi >= 0 else -1)
        hi = max(cands)
    return Interval(lo, hi)


def _mod(a: Interval, b: Interval) -> Interval:
    if b.lo is not None and b.lo >= 1:
        return Interval(0, None if b.hi is None else b.hi - 1)
    return TOP


def _bitand(a: Interval, b: Interval) -> Interval:
    # For any int x and y ≥ 0: x & y ∈ [0, y] — the masking idiom.
    caps = [
        v.hi for v in (a, b)
        if v.lo is not None and v.lo >= 0 and v.hi is not None
    ]
    if caps:
        return Interval(0, min(caps))
    if all(v.lo is not None and v.lo >= 0 for v in (a, b)):
        return Interval(0, None)
    return TOP


def _bitor(a: Interval, b: Interval, *, xor: bool = False) -> Interval:
    if not all(v.lo is not None and v.lo >= 0 for v in (a, b)):
        return TOP
    lo = 0 if xor else max(a.lo, b.lo)
    if a.hi is None or b.hi is None:
        return Interval(lo, None)
    bits = max(a.hi.bit_length(), b.hi.bit_length())
    return Interval(lo, (1 << bits) - 1)


#: Shift amounts above this are treated as unbounded for *value*
#: computation (the amount interval itself stays precise for REP018).
_SHIFT_VALUE_CAP = 256


def _shift_amount(k: Interval) -> Interval:
    # Conditioned on normal completion: a negative amount raises.
    return k.meet(Interval(0, None))


def _lshift(a: Interval, k: Interval) -> Interval:
    k = _shift_amount(k)
    if k.is_empty:
        return BOTTOM
    klo = k.lo or 0
    khi = k.hi if k.hi is not None and k.hi <= _SHIFT_VALUE_CAP else None
    if a.lo is None:
        lo = None
    elif a.lo >= 0:
        lo = a.lo << klo
    else:
        lo = None if khi is None else a.lo << khi
    if a.hi is None:
        hi = None
    elif a.hi > 0:
        hi = None if khi is None else a.hi << khi
    else:
        hi = a.hi << klo
    return Interval(lo, hi)


def _rshift(a: Interval, k: Interval) -> Interval:
    k = _shift_amount(k)
    if k.is_empty:
        return BOTTOM
    klo = k.lo or 0
    khi = k.hi if k.hi is not None and k.hi <= _SHIFT_VALUE_CAP else None
    if a.lo is None:
        lo = None
    elif a.lo >= 0:
        lo = 0 if khi is None else a.lo >> khi
    else:
        lo = a.lo >> klo
    if a.hi is None:
        hi = None
    elif a.hi >= 0:
        hi = a.hi >> klo
    else:
        hi = -1 if khi is None else a.hi >> khi
    return Interval(lo, hi)


def _abs(a: Interval) -> Interval:
    if a.lo is not None and a.lo >= 0:
        return a
    if a.hi is not None and a.hi <= 0:
        return _neg(a)
    hi = None
    if a.lo is not None and a.hi is not None:
        hi = max(-a.lo, a.hi)
    return Interval(0, hi)


# ---------------------------------------------------------------------------
# spec constant seeds + widening thresholds


_constants_cache: dict | None = None


def spec_constants() -> dict:
    """``deflate.constants`` names → abstract values (cached).

    Ints become point intervals, int tuples and 1-D NumPy LUTs become
    ``const`` sequences (element hull + exact length), bytes become
    :class:`BytesVal` — so ``C.LENGTH_BASE[idx]`` evaluates to
    ``[3, 258]`` and ``len(C.CODELEN_ORDER)`` to ``[19, 19]``.
    """
    global _constants_cache
    if _constants_cache is not None:
        return _constants_cache
    from repro.deflate import constants as C

    out: dict = {}
    for name in dir(C):
        if name.startswith("__"):
            continue
        value = getattr(C, name)
        if isinstance(value, bool):
            continue
        if isinstance(value, int):
            out[name] = Interval(value, value)
        elif isinstance(value, bytes):
            out[name] = BytesVal(Interval(len(value), len(value)))
        elif (
            isinstance(value, tuple)
            and value
            and all(isinstance(e, int) for e in value)
        ):
            out[name] = SeqVal(
                Interval(min(value), max(value)),
                Interval(len(value), len(value)),
                const=True,
            )
        else:
            try:
                import numpy as np

                if isinstance(value, np.ndarray) and value.ndim == 1 and value.size:
                    out[name] = SeqVal(
                        Interval(int(value.min()), int(value.max())),
                        Interval(len(value), len(value)),
                        const=True,
                    )
            except Exception:  # lint: allow-broad-except(optional numpy introspection)
                pass
    _constants_cache = out
    return out


_thresholds_cache: tuple[int, ...] | None = None


def spec_thresholds() -> tuple[int, ...]:
    """The widening ladder: spec constants, powers of two, and their
    negations — escaping loop bounds snap to these before ±∞."""
    global _thresholds_cache
    if _thresholds_cache is not None:
        return _thresholds_cache
    vals = {0, 1}
    for value in spec_constants().values():
        if isinstance(value, Interval) and value.is_point:
            vals.add(value.lo)
        elif isinstance(value, SeqVal):
            if value.elem is not None and value.elem.lo is not None:
                vals.add(value.elem.lo)
            if value.elem is not None and value.elem.hi is not None:
                vals.add(value.elem.hi)
            if value.length.lo is not None:
                vals.add(value.length.lo)
    for p in range(1, 17):
        vals.add(1 << p)
        vals.add((1 << p) - 1)
    for p in (24, 32, 64):
        vals.add(1 << p)
        vals.add((1 << p) - 1)
    vals |= {-v for v in vals}
    _thresholds_cache = tuple(sorted(vals))
    return _thresholds_cache


#: Spec constants an allocation bound may be discharged against
#: (REP020), smallest first so the witness names the tightest one.
_SPEC_CAPS = (
    ("MAX_MATCH", 258),
    ("NUM_LITLEN_SYMBOLS", 288),
    ("PROBE_MIN_BLOCK", 1024),
    ("WINDOW_SIZE", 32768),
    ("PROBE_MAX_BLOCK", 4 * 1024 * 1024),
)


def spec_cap_for(hi: int) -> tuple[str, int] | None:
    """Tightest spec constant ≥ ``hi``, or None if the bound is too big."""
    for name, value in _SPEC_CAPS:
        if hi <= value:
            return name, value
    return None


# ---------------------------------------------------------------------------
# trusted name seeds (documented domain invariants)

#: Naming-convention seeds, the numeric analogue of ``units.py``'s
#: name heuristics.  These encode invariants the BitReader/Huffman
#: layer maintains by construction: ``nbits``/``bitcount`` never
#: exceed the 64-bit refill word, canonical code lengths never exceed
#: MAX_CODE_BITS = 15.  Applied to parameters and otherwise-unbound
#: names only — a local assignment always wins.
_NAME_SEEDS: dict[str, Interval] = {
    "nbits": Interval(0, 64),
    "bitcount": Interval(0, 64),
    "_bitcount": Interval(0, 64),
    "bitbuf": Interval(0, (1 << 64) - 1),
    "_bitbuf": Interval(0, (1 << 64) - 1),
    "max_bits": Interval(1, 15),
    "lit_bits": Interval(1, 15),
    "dist_bits": Interval(0, 15),
}

_ATTR_SEEDS: dict[str, Interval] = {
    **_NAME_SEEDS,
    "_pos": Interval(0, None),
    "_nbytes": Interval(0, None),
}

#: Parameters that are, by the decoder's calling convention, always one
#: of the RFC 1951 base/extra tables (possibly as a NumPy view): the
#: hot loops pass ``C.LENGTH_BASE`` / ``C.DIST_BASE`` and friends down
#: as locals to skip attribute lookups.  Seeding them with the spec
#: table's hull is what lets ``dbase[dsym] + read(dex)`` prove the
#: [1, 32768] distance range interprocedurally.
_TABLE_PARAM_SEEDS: dict[str, str] = {
    "lbase": "LENGTH_BASE",
    "lextra": "LENGTH_EXTRA_BITS",
    "dbase": "DIST_BASE",
    "dextra": "DIST_EXTRA_BITS",
}

_READ_METHODS = frozenset({"read", "peek", "read_bits", "peek_bits"})
_NONNEG_METHODS = frozenset({"tell", "bit_pos", "byte_pos", "bits_remaining"})
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "remove", "discard",
    "pop", "popitem", "clear", "setdefault", "sort", "reverse",
})


def _is_table_name(name: str) -> bool:
    return name == "table" or name.endswith("_table")


def _terminal_name(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


# ---------------------------------------------------------------------------
# the analysis


class IntervalAnalysis(ForwardAnalysis):
    """Forward interval analysis over one unit's CFG.

    Environments map names to :class:`Interval` / :class:`SeqVal` /
    :class:`BytesVal` / :class:`TupleVal` / :class:`TableVal`; a
    missing name is ⊤.  ``module_env`` supplies module-level constant
    bindings of the module under analysis; ``resolve_interval`` maps a
    resolved project call to its summary return interval.
    """

    def __init__(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef | None = None,
        *,
        module_env: Env | None = None,
        resolve_interval: Callable[[ast.Call], Interval | None] | None = None,
    ) -> None:
        self.func = func
        self.module_env = module_env or {}
        self.resolve_interval = resolve_interval
        self._thresholds = spec_thresholds()
        self._constants = spec_constants()

    # -- lattice hooks -------------------------------------------------------

    def initial_env(self) -> Env:
        env: Env = {}
        if self.func is not None:
            args = self.func.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                seed = _NAME_SEEDS.get(arg.arg)
                if seed is None:
                    key = _TABLE_PARAM_SEEDS.get(arg.arg)
                    if key is not None:
                        seed = self._constants.get(key)
                if seed is not None:
                    env[arg.arg] = seed
        return env

    def join_values(self, a, b):
        if isinstance(a, Interval) and isinstance(b, Interval):
            return a.join(b)
        if isinstance(a, Interval) and a.is_empty:
            return b
        if isinstance(b, Interval) and b.is_empty:
            return a
        if a == b:
            return a
        if a is None:
            return b if isinstance(b, Interval) and b.is_empty else None
        if b is None:
            return a if isinstance(a, Interval) and a.is_empty else None
        if isinstance(a, SeqVal) and isinstance(b, SeqVal):
            elem = (
                None if a.elem is None or b.elem is None
                else a.elem.join(b.elem)
            )
            return SeqVal(elem, a.length.join(b.length), a.const and b.const)
        if isinstance(a, BytesVal) and isinstance(b, BytesVal):
            return BytesVal(a.length.join(b.length))
        if isinstance(a, TupleVal) and isinstance(b, TupleVal) and len(
            a.elems
        ) == len(b.elems):
            return TupleVal(tuple(
                self.join_values(x, y) for x, y in zip(a.elems, b.elems)
            ))
        return None

    def widen_values(self, old, new):
        """Widening hook the solver applies at loop heads."""
        if isinstance(old, Interval) and isinstance(new, Interval):
            return old.widen(new, self._thresholds)
        if isinstance(old, SeqVal) and isinstance(new, SeqVal):
            elem = (
                None if old.elem is None or new.elem is None
                else old.elem.widen(new.elem, self._thresholds)
            )
            return SeqVal(
                elem,
                old.length.widen(new.length, self._thresholds),
                old.const and new.const,
            )
        if isinstance(old, BytesVal) and isinstance(new, BytesVal):
            return BytesVal(old.length.widen(new.length, self._thresholds))
        if isinstance(old, TupleVal) and isinstance(new, TupleVal) and len(
            old.elems
        ) == len(new.elems):
            return TupleVal(tuple(
                self.widen_values(x, y) for x, y in zip(old.elems, new.elems)
            ))
        return new

    # -- evaluation ----------------------------------------------------------

    def eval(self, node: ast.expr, env: Env):
        """Abstract value of ``node`` under ``env`` (None = no info)."""
        if isinstance(node, ast.Constant):
            v = node.value
            if isinstance(v, bool):
                return Interval(int(v), int(v))
            if isinstance(v, int):
                return Interval(v, v)
            if isinstance(v, (bytes, bytearray)):
                return BytesVal(Interval(len(v), len(v)))
            return None
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            if node.id in self.module_env:
                return self.module_env[node.id]
            if node.id in self._constants:
                return self._constants[node.id]
            return _NAME_SEEDS.get(node.id)
        if isinstance(node, ast.Attribute):
            if node.attr in self._constants:
                return self._constants[node.attr]
            if _is_table_name(node.attr):
                return TableVal()
            return _ATTR_SEEDS.get(node.attr)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node, env)
        if isinstance(node, ast.UnaryOp):
            return self._eval_unaryop(node, env)
        if isinstance(node, ast.BoolOp):
            out = None
            for v in node.values:
                out = self.join_values(out, self.eval(v, env)) if out is not None \
                    else self.eval(v, env)
            return out
        if isinstance(node, ast.Compare):
            return Interval(0, 1)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.IfExp):
            then_env, else_env = dict(env), dict(env)
            self._refine(node.test, True, then_env)
            self._refine(node.test, False, else_env)
            a = self.eval(node.body, then_env)
            b = self.eval(node.orelse, else_env)
            if a is None or b is None:
                return None
            return self.join_values(a, b)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node, env)
        if isinstance(node, ast.Tuple):
            return TupleVal(tuple(
                v if isinstance(v := self.eval(e, env), Interval) else None
                for e in node.elts
            ))
        if isinstance(node, ast.List):
            elems = [self.eval(e, env) for e in node.elts]
            hull = BOTTOM
            known = True
            for v in elems:
                if isinstance(v, Interval):
                    hull = hull.join(v)
                else:
                    known = False
            const = all(isinstance(e, ast.Constant) for e in node.elts)
            return SeqVal(
                hull if known and elems else None,
                Interval(len(elems), len(elems)),
                const=const,
            )
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._eval_comp(node, env)
        if isinstance(node, ast.NamedExpr):
            value = self.eval(node.value, env)
            if isinstance(node.target, ast.Name):
                self._bind(node.target.id, value, env)
            return value
        return None

    def _eval_binop(self, node: ast.BinOp, env: Env):
        left = self.eval(node.left, env)
        right = self.eval(node.right, env)
        # Sequence repeat / concat keep length information for the
        # allocation-bound proofs (REP020's ``b"?" * n`` sinks).
        if isinstance(node.op, ast.Mult):
            for seq, count in ((left, right), (right, left)):
                if isinstance(count, Interval):
                    # A repeat count <= 0 yields the empty sequence, so
                    # the length bound only needs the count's upper end.
                    reps = count.meet(Interval(0, None))
                    if isinstance(seq, BytesVal):
                        return BytesVal(_mul(seq.length, reps))
                    if isinstance(seq, SeqVal):
                        return SeqVal(seq.elem, _mul(seq.length, reps))
                    if isinstance(seq, TupleVal):
                        n = len(seq.elems)
                        return SeqVal(
                            _hull(seq), _mul(Interval(n, n), reps)
                        )
        if isinstance(node.op, ast.Add):
            if isinstance(left, BytesVal) and isinstance(right, BytesVal):
                return BytesVal(_add(left.length, right.length))
            if isinstance(left, SeqVal) and isinstance(right, SeqVal):
                elem = (
                    None if left.elem is None or right.elem is None
                    else left.elem.join(right.elem)
                )
                return SeqVal(elem, _add(left.length, right.length))
        a, b = _hull(left), _hull(right)
        if left is None:
            a = TOP
        if right is None:
            b = TOP
        if isinstance(node.op, ast.Add):
            return _add(a, b)
        if isinstance(node.op, ast.Sub):
            return _sub(a, b)
        if isinstance(node.op, ast.Mult):
            return _mul(a, b)
        if isinstance(node.op, ast.FloorDiv):
            return _floordiv(a, b)
        if isinstance(node.op, ast.Mod):
            return _mod(a, b)
        if isinstance(node.op, ast.LShift):
            return _lshift(a, b)
        if isinstance(node.op, ast.RShift):
            return _rshift(a, b)
        if isinstance(node.op, ast.BitAnd):
            return _bitand(a, b)
        if isinstance(node.op, ast.BitOr):
            return _bitor(a, b)
        if isinstance(node.op, ast.BitXor):
            return _bitor(a, b, xor=True)
        return None

    def _eval_unaryop(self, node: ast.UnaryOp, env: Env):
        v = self.eval(node.operand, env)
        if not isinstance(v, Interval):
            return Interval(0, 1) if isinstance(node.op, ast.Not) else None
        if isinstance(node.op, ast.USub):
            return _neg(v)
        if isinstance(node.op, ast.UAdd):
            return v
        if isinstance(node.op, ast.Invert):
            return _sub(Interval(-1, -1), v)
        return Interval(0, 1)

    def _eval_call(self, node: ast.Call, env: Env):
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in _READ_METHODS and node.args:
                n = _hull(self.eval(node.args[0], env) or TOP)
                if n.hi is not None and 0 <= n.hi <= 64:
                    return Interval(0, (1 << n.hi) - 1)
                return Interval(0, None)
            if func.attr == "read_bytes":
                n = _hull(self.eval(node.args[0], env) or TOP) if node.args else TOP
                return BytesVal(Interval(0, n.hi))
            if func.attr == "from_bytes":
                return Interval(0, None)
            if func.attr in _NONNEG_METHODS:
                return Interval(0, None)
        name = func.id if isinstance(func, ast.Name) else ""
        if name == "len":
            if len(node.args) == 1:
                v = self.eval(node.args[0], env)
                if isinstance(v, (SeqVal, BytesVal)):
                    return v.length
                if isinstance(v, TupleVal):
                    n = len(v.elems)
                    return Interval(n, n)
            return Interval(0, None)
        if name in ("min", "max"):
            return self._eval_minmax(node, env, is_min=name == "min")
        if name == "abs" and len(node.args) == 1:
            v = self.eval(node.args[0], env)
            return _abs(v) if isinstance(v, Interval) else Interval(0, None)
        if name in ("int", "round") and len(node.args) >= 1:
            v = self.eval(node.args[0], env)
            return v if isinstance(v, Interval) else None
        if name == "range":
            return self._eval_range(node, env)
        if name == "ord":
            return Interval(0, 0x10FFFF)
        if name == "sum" and len(node.args) == 1:
            v = self.eval(node.args[0], env)
            elem = _elem_of(v)
            if elem is not None and elem.lo is not None and elem.lo >= 0:
                return Interval(0, None)
            return None
        if name in ("sorted", "list", "tuple", "reversed") and len(node.args) == 1:
            v = self.eval(node.args[0], env)
            if isinstance(v, (SeqVal, BytesVal)):
                return v
            if isinstance(v, TupleVal):
                n = len(v.elems)
                return SeqVal(_hull(v), Interval(n, n))
            return None
        if name in ("bytes", "bytearray"):
            if not node.args:
                return BytesVal(Interval(0, 0))
            v = self.eval(node.args[0], env)
            if isinstance(v, Interval):
                return BytesVal(Interval(max(0, v.lo or 0), v.hi))
            if isinstance(v, BytesVal):
                return v
            if isinstance(v, (SeqVal, TupleVal)):
                if isinstance(v, SeqVal):
                    return BytesVal(v.length)
                n = len(v.elems)
                return BytesVal(Interval(n, n))
            return BytesVal(Interval(0, None))
        if self.resolve_interval is not None:
            resolved = self.resolve_interval(node)
            if resolved is not None:
                return resolved
        return None

    def _eval_minmax(self, node: ast.Call, env: Env, *, is_min: bool):
        if not node.args:
            return None
        if len(node.args) == 1:
            elem = _elem_of(self.eval(node.args[0], env))
            return elem  # min/max of a sequence lies within its hull
        ivs = []
        for arg in node.args:
            v = self.eval(arg, env)
            ivs.append(_hull(v) if v is not None else TOP)
        if is_min:
            los = [iv.lo for iv in ivs]
            lo = None if any(x is None for x in los) else min(los)
            his = [iv.hi for iv in ivs if iv.hi is not None]
            hi = min(his) if his else None
        else:
            his = [iv.hi for iv in ivs]
            hi = None if any(x is None for x in his) else max(his)
            los = [iv.lo for iv in ivs if iv.lo is not None]
            lo = max(los) if los else None
        return Interval(lo, hi)

    def _eval_range(self, node: ast.Call, env: Env):
        args = [_hull(self.eval(a, env) or TOP) for a in node.args]
        if not args:
            return None
        if len(args) == 1:
            elem = Interval(0, None if args[0].hi is None else args[0].hi - 1)
        else:
            start, stop = args[0], args[1]
            step = args[2] if len(args) > 2 else Interval(1, 1)
            if step.lo is not None and step.lo >= 1:
                elem = Interval(
                    start.lo, None if stop.hi is None else stop.hi - 1
                )
            elif step.hi is not None and step.hi <= -1:
                elem = Interval(
                    None if stop.lo is None else stop.lo + 1, start.hi
                )
            else:
                elem = start.join(stop)
        return SeqVal(elem, Interval(0, None))

    def _eval_subscript(self, node: ast.Subscript, env: Env):
        container = self.eval(node.value, env)
        if container is None and _is_table_name(_terminal_name(node.value)):
            container = TableVal()
        if isinstance(node.slice, ast.Slice):
            if isinstance(container, BytesVal):
                return BytesVal(Interval(0, container.length.hi))
            if isinstance(container, SeqVal):
                return SeqVal(container.elem, Interval(0, container.length.hi))
            return None
        if isinstance(container, TableVal):
            return _TABLE_ENTRY
        if isinstance(container, TupleVal):
            idx = self.eval(node.slice, env)
            if isinstance(idx, Interval) and idx.is_point:
                i = idx.lo
                if -len(container.elems) <= i < len(container.elems):
                    return container.elems[i]
                return None
            return _hull(container)
        if isinstance(container, BytesVal):
            return _BYTE
        if isinstance(container, SeqVal):
            return container.elem
        return None

    def _eval_comp(self, node, env: Env):
        ext = dict(env)
        length = Interval(0, None)
        for i, gen in enumerate(node.generators):
            iter_val = self.eval(gen.iter, ext)
            if i == 0:
                if isinstance(iter_val, (SeqVal, BytesVal)):
                    length = Interval(0, iter_val.length.hi)
                elif isinstance(iter_val, TupleVal):
                    length = Interval(0, len(iter_val.elems))
                if gen.ifs:
                    length = Interval(0, length.hi)
            self._bind_loop_target(gen.target, gen.iter, ext)
            for cond in gen.ifs:
                self._refine(cond, True, ext)
        elt = getattr(node, "elt", None)
        elem = self.eval(elt, ext) if elt is not None else None
        hull = _hull(elem) if elem is not None else None
        return SeqVal(hull, length)

    def comp_env(self, node, env: Env) -> Env:
        """Environment inside a comprehension (targets bound, ifs applied)."""
        ext = dict(env)
        for gen in node.generators:
            self._bind_loop_target(gen.target, gen.iter, ext)
            for cond in gen.ifs:
                self._refine(cond, True, ext)
        return ext

    # -- transfer ------------------------------------------------------------

    def transfer_stmt(self, stmt: ast.stmt, env: Env) -> None:
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value, env)
            for target in stmt.targets:
                self._assign_target(target, value, env)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            value = self.eval(stmt.value, env) if stmt.value is not None else None
            self._bind(stmt.target.id, value, env)
        elif isinstance(stmt, ast.AugAssign):
            self._transfer_augassign(stmt, env)
        elif isinstance(stmt, ast.Assert):
            self._refine(stmt.test, True, env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind_loop_target(stmt.target, stmt.iter, env)
        elif isinstance(stmt, ast.Expr):
            self._transfer_mutation(stmt.value, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)

    def _transfer_augassign(self, stmt: ast.AugAssign, env: Env) -> None:
        target = stmt.target
        if isinstance(target, ast.Name):
            synthetic = ast.BinOp(
                left=ast.Name(id=target.id, ctx=ast.Load()),
                op=stmt.op,
                right=stmt.value,
            )
            self._bind(target.id, self._eval_binop(synthetic, env), env)
        elif isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Name
        ):
            env.pop(target.value.id, None)  # container mutated in place

    def _transfer_mutation(self, expr: ast.expr, env: Env) -> None:
        # out.append(...) / table.extend(...) invalidate tracked lengths.
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in _MUTATING_METHODS
            and isinstance(expr.func.value, ast.Name)
        ):
            env.pop(expr.func.value.id, None)

    def _assign_target(self, target: ast.expr, value, env: Env) -> None:
        if isinstance(target, ast.Name):
            self._bind(target.id, value, env)
        elif isinstance(target, (ast.Tuple, ast.List)):
            elts = target.elts
            if (
                isinstance(value, TupleVal)
                and len(value.elems) == len(elts)
                and not any(isinstance(e, ast.Starred) for e in elts)
            ):
                for elt, v in zip(elts, value.elems):
                    self._assign_target(elt, v, env)
                return
            elem = _elem_of(value)
            for elt in elts:
                if isinstance(elt, ast.Starred):
                    elt = elt.value
                self._assign_target(elt, elem, env)
        elif isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Name
        ):
            env.pop(target.value.id, None)  # container mutated in place

    def _bind(self, name: str, value, env: Env) -> None:
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value

    def _bind_loop_target(
        self, target: ast.expr, iter_expr: ast.expr, env: Env
    ) -> None:
        if (
            isinstance(iter_expr, ast.Call)
            and isinstance(iter_expr.func, ast.Name)
            and iter_expr.func.id == "enumerate"
            and iter_expr.args
            and isinstance(target, ast.Tuple)
            and len(target.elts) == 2
        ):
            seq = self.eval(iter_expr.args[0], env)
            index = Interval(0, None)
            if isinstance(seq, (SeqVal, BytesVal)) and seq.length.hi is not None:
                index = Interval(0, max(0, seq.length.hi - 1))
            self._assign_target(target.elts[0], index, env)
            self._assign_target(target.elts[1], _elem_of(seq), env)
            return
        elem = _elem_of(self.eval(iter_expr, env))
        if isinstance(target, ast.Name):
            self._bind(target.id, elem, env)
        else:
            # Tuple unpack of an opaque iterable: drop every bound name.
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    env.pop(sub.id, None)

    # -- branch refinement ---------------------------------------------------

    def refine_edge(self, test: ast.expr, label: str, env: Env) -> None:
        self._refine(test, label == "true", env)

    def _refine(self, test: ast.expr, truth: bool, env: Env) -> None:
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            self._refine(test.operand, not truth, env)
            return
        if isinstance(test, ast.BoolOp):
            conjunctive = (isinstance(test.op, ast.And) and truth) or (
                isinstance(test.op, ast.Or) and not truth
            )
            if conjunctive:
                for value in test.values:
                    self._refine(value, truth, env)
            return
        if isinstance(test, ast.Compare):
            self._refine_compare(test, truth, env)
            return
        if isinstance(test, ast.NamedExpr):
            self._refine(
                ast.Name(id=test.target.id, ctx=ast.Load()), truth, env
            ) if isinstance(test.target, ast.Name) else None
            return
        if isinstance(test, ast.Name):
            iv = env.get(test.id)
            if isinstance(iv, Interval):
                if truth:
                    env[test.id] = _exclude_point(iv, 0)
                else:
                    env[test.id] = iv.meet(Interval(0, 0))

    def _refine_compare(self, test: ast.Compare, truth: bool, env: Env) -> None:
        operands = [test.left, *test.comparators]
        if not truth and len(test.ops) > 1:
            return  # negation of a chain is a disjunction: no refinement
        for (left, op, right) in zip(operands, test.ops, operands[1:]):
            self._refine_pair(left, op, right, truth, env)

    def _refine_pair(
        self, left: ast.expr, op: ast.cmpop, right: ast.expr, truth: bool, env: Env
    ) -> None:
        lv = _hull(self.eval(left, env) or TOP)
        rv = _hull(self.eval(right, env) or TOP)
        if isinstance(left, ast.Name):
            refined = _apply_cmp(lv, op, rv, truth)
            if refined is not None:
                env[left.id] = refined
        if isinstance(right, ast.Name):
            refined = _apply_cmp(rv, _mirror(op), lv, truth)
            if refined is not None:
                env[right.id] = refined


def _exclude_point(iv: Interval, value: int) -> Interval:
    if iv.lo == value:
        return Interval(value + 1, iv.hi)
    if iv.hi == value:
        return Interval(iv.lo, value - 1)
    return iv


_INVERT = {
    ast.Lt: ast.GtE, ast.LtE: ast.Gt, ast.Gt: ast.LtE, ast.GtE: ast.Lt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}
_MIRROR = {
    ast.Lt: ast.Gt, ast.LtE: ast.GtE, ast.Gt: ast.Lt, ast.GtE: ast.LtE,
    ast.Eq: ast.Eq, ast.NotEq: ast.NotEq,
}


def _mirror(op: ast.cmpop) -> ast.cmpop:
    cls = _MIRROR.get(type(op))
    return cls() if cls is not None else op


def _apply_cmp(
    iv: Interval, op: ast.cmpop, other: Interval, truth: bool
) -> Interval | None:
    """``iv`` refined by ``iv OP other`` being ``truth`` (None = no gain)."""
    cls = type(op)
    if not truth:
        cls = _INVERT.get(cls)
        if cls is None:
            return None
    if cls is ast.Lt:
        if other.hi is None:
            return None
        return iv.meet(Interval(None, other.hi - 1))
    if cls is ast.LtE:
        if other.hi is None:
            return None
        return iv.meet(Interval(None, other.hi))
    if cls is ast.Gt:
        if other.lo is None:
            return None
        return iv.meet(Interval(other.lo + 1, None))
    if cls is ast.GtE:
        if other.lo is None:
            return None
        return iv.meet(Interval(other.lo, None))
    if cls is ast.Eq:
        return iv.meet(other)
    if cls is ast.NotEq:
        if other.is_point:
            return _exclude_point(iv, other.lo)
        return None
    return None


# ---------------------------------------------------------------------------
# module-level constant environments


def module_constant_env(tree: ast.Module) -> Env:
    """Evaluate simple module-level constant assignments into an env.

    ``_HASH_BITS = 15`` / ``_HASH_SIZE = 1 << _HASH_BITS`` /
    ``MAX_DIST = C.WINDOW_SIZE - _MIN_LOOKAHEAD`` all resolve, chaining
    through earlier bindings and the spec-constant seeds.  Names bound
    more than once at top level are dropped (flow-insensitive safety).
    """
    analysis = IntervalAnalysis()
    env: Env = {}
    assigned: set[str] = set()
    dropped: set[str] = set()
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            if name in assigned or name in dropped:
                dropped.add(name)
                env.pop(name, None)
                continue
            assigned.add(name)
            evaluated = analysis.eval(value, env)
            if evaluated is not None:
                env[name] = evaluated
    return env


# ---------------------------------------------------------------------------
# driving one unit


@dataclass
class IntervalRun:
    """Solved interval analysis of one unit, with replay helpers."""

    analysis: IntervalAnalysis
    cfg: CFG
    envs_in: dict[int, Env]

    def replay(self) -> Iterator[tuple[str, ast.AST, Env]]:
        return replay_blocks(self.cfg, self.analysis, self.envs_in)

    def stmt_envs(self) -> dict[int, Env]:
        """``id(stmt)`` → environment holding before that statement."""
        out: dict[int, Env] = {}
        for kind, node, env in self.replay():
            out[id(node)] = dict(env)
        return out

    def return_interval(self) -> Interval | None:
        """Join of every ``return`` expression's interval (None if any
        return value resists evaluation — no claim is made then)."""
        joined: Interval | None = None
        for kind, node, env in self.replay():
            if kind != "stmt" or not isinstance(node, ast.Return):
                continue
            if node.value is None:
                continue
            value = self.analysis.eval(node.value, env)
            if not isinstance(value, Interval):
                return None
            joined = value if joined is None else joined.join(value)
        return joined


def run_intervals(
    func: ast.FunctionDef | ast.AsyncFunctionDef | None,
    body: list[ast.stmt],
    *,
    module_env: Env | None = None,
    resolve_interval=None,
) -> IntervalRun:
    """Solve the interval analysis over one unit's CFG."""
    analysis = IntervalAnalysis(
        func, module_env=module_env, resolve_interval=resolve_interval
    )
    cfg = build_cfg(body)
    envs_in = solve(cfg, analysis)
    return IntervalRun(analysis, cfg, envs_in)


def walk_with_env(
    analysis: IntervalAnalysis, expr: ast.expr, env: Env
) -> Iterator[tuple[ast.AST, Env]]:
    """Yield every sub-expression of ``expr`` with its evaluation env.

    Comprehensions extend a copied environment with their generator
    targets (refined by the ``if`` clauses) for the inner parts, so a
    shift like ``1 << (max_bits - l) for l in nonzero`` sees ``l``
    bound to the element hull of ``nonzero``.  Lambda bodies are
    skipped — they execute elsewhere.
    """
    yield expr, env
    if isinstance(expr, ast.Lambda):
        return
    if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        inner = analysis.comp_env(expr, env)
        scope = env
        for gen in expr.generators:
            yield from walk_with_env(analysis, gen.iter, scope)
            scope = inner  # later generators/conditions see bound targets
            for cond in gen.ifs:
                yield from walk_with_env(analysis, cond, inner)
        for part in ("elt", "key", "value"):
            sub = getattr(expr, part, None)
            if sub is not None:
                yield from walk_with_env(analysis, sub, inner)
        return
    for child in ast.iter_child_nodes(expr):
        if isinstance(child, ast.expr):
            yield from walk_with_env(analysis, child, env)
        elif isinstance(child, (ast.keyword, ast.FormattedValue)):
            yield from walk_with_env(analysis, child.value, env)


def iter_unit_expressions(
    run: IntervalRun,
) -> Iterator[tuple[ast.stmt | None, ast.AST, Env]]:
    """Every expression node of the unit with its environment.

    Yields ``(owning stmt or None for branch tests, node, env)`` —
    the common driver for REP018/REP019's obligation scans.
    """
    for kind, node, env in run.replay():
        if kind == "stmt":
            for expr in stmt_expressions(node):
                for sub, sub_env in walk_with_env(run.analysis, expr, env):
                    yield node, sub, sub_env
        else:
            for sub, sub_env in walk_with_env(run.analysis, node, env):
                yield None, sub, sub_env


# ---------------------------------------------------------------------------
# test helpers


def analyze_source(source: str, funcname: str | None = None) -> IntervalRun:
    """Run the analysis over in-memory source (widening/termination tests).

    With ``funcname``, analyses that function's body; otherwise the
    module top level.
    """
    tree = ast.parse(source)
    module_env = module_constant_env(tree)
    if funcname is None:
        return run_intervals(None, tree.body, module_env=module_env)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == funcname:
                return run_intervals(node, node.body, module_env=module_env)
    raise ValueError(f"function {funcname!r} not found")


def joined_name_intervals(run: IntervalRun) -> dict[str, Interval]:
    """Per-name join of every program point's interval binding.

    The property tests compare *observed* runtime values against these:
    any value a name ever holds at any point of the unit must fall
    inside its joined interval.
    """
    out: dict[str, Interval] = {}
    for kind, node, env in run.replay():
        for name, value in env.items():
            if isinstance(value, Interval) and not value.is_empty:
                out[name] = out[name].join(value) if name in out else value
    # Include the env after the last transfer of each block, so names
    # bound by a block's final statement are represented too.
    for block in run.cfg:
        env = dict(run.envs_in.get(block.bid, {}))
        for stmt in block.stmts:
            run.analysis.transfer_stmt(stmt, env)
        for name, value in env.items():
            if isinstance(value, Interval) and not value.is_empty:
                out[name] = out[name].join(value) if name in out else value
    return out
