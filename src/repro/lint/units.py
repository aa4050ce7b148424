"""Units-of-measure lattice for stream offsets: bits vs. bytes.

The abstract domain is the four-point lattice from the design note in
``docs/STATIC_ANALYSIS.md``::

            BIT_OR_BYTE          (conflicting evidence — never reported)
              /      \\
            BIT      BYTE        (definite unit)
              \\      /
              UNKNOWN            (no evidence / unitless)

Three evidence sources seed the domain, in decreasing priority:

1. **Dataflow**: the value a variable was assigned (propagated by the
   solver) — ``x = reader.tell_bits()`` makes ``x`` a BIT wherever that
   assignment reaches.
2. **Annotations**: parameters and variables annotated with the
   ``repro.units`` NewTypes ``BitOffset`` / ``ByteOffset``.
3. **Names**: identifier tokens — ``start_bit``, ``nbits``,
   ``total_bits`` are bits; ``byte_offset``, ``nbytes`` are bytes.

Conversion idioms translate between the units (RFC 1951 packing):
``x * 8`` / ``x << 3`` lift bytes to bits, ``x // 8`` / ``x >> 3``
drop bits to bytes, ``x & 7`` / ``x % 8`` extract the intra-byte bit
remainder.  Converting a value that is *already* in the target unit
yields BIT_OR_BYTE — a double conversion is itself suspicious, but the
lattice stays silent rather than guessing.
"""

from __future__ import annotations

import ast
import enum

from repro.lint.dataflow import Env

__all__ = [
    "Unit",
    "join_units",
    "unit_of_name",
    "unit_from_annotation",
    "UnitEvaluator",
    "BYTE_BUFFER_NAMES",
    "is_bytes_annotation",
]


class Unit(enum.Enum):
    UNKNOWN = "unknown"
    BIT = "bit"
    BYTE = "byte"
    BIT_OR_BYTE = "bit_or_byte"


def join_units(a: Unit | None, b: Unit | None) -> Unit | None:
    """Lattice join; ``None`` (no binding) is the identity."""
    if a is None or a is Unit.UNKNOWN:
        return b
    if b is None or b is Unit.UNKNOWN:
        return a
    if a is b:
        return a
    return Unit.BIT_OR_BYTE


# Identifier tokens that pin a unit.  Matched against the
# underscore-split tokens of a (stripped) identifier, so ``start_bit``,
# ``_total_bits`` and ``nbits`` all classify while ``bitmap`` or
# ``orbit`` never do.
_BIT_TOKENS = {"bit", "bits", "nbits", "bitcount", "bitpos"}
_BYTE_TOKENS = {"byte", "bytes", "nbytes", "bytecount", "bytepos"}

#: Names conventionally bound to byte buffers in this codebase; used by
#: REP014's subscript/len sinks (alongside bytes-ish annotations).
BYTE_BUFFER_NAMES = {
    "data", "buf", "buffer", "payload", "blob", "raw",
    "gz_data", "compressed", "_data", "out_bytes",
}


def unit_of_name(name: str) -> Unit:
    """Unit evidence carried by an identifier itself."""
    tokens = [t for t in name.strip("_").lower().split("_") if t]
    has_bit = any(t in _BIT_TOKENS for t in tokens)
    has_byte = any(t in _BYTE_TOKENS for t in tokens)
    if has_bit and not has_byte:
        return Unit.BIT
    if has_byte and not has_bit:
        return Unit.BYTE
    return Unit.UNKNOWN


def _annotation_name(node: ast.expr | None) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value  # string annotation, e.g. "BitOffset"
    return ""


def unit_from_annotation(annotation: ast.expr | None) -> Unit:
    """Unit pinned by a ``BitOffset``/``ByteOffset`` annotation."""
    name = _annotation_name(annotation)
    if name == "BitOffset":
        return Unit.BIT
    if name == "ByteOffset":
        return Unit.BYTE
    return Unit.UNKNOWN


def is_bytes_annotation(annotation: ast.expr | None) -> bool:
    """True for annotations naming a byte-buffer type."""
    name = _annotation_name(annotation)
    if name in ("bytes", "bytearray", "memoryview"):
        return True
    # ``bytes | bytearray`` style unions.
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return is_bytes_annotation(annotation.left) or is_bytes_annotation(
            annotation.right
        )
    return False


def _const_value(node: ast.expr):
    if isinstance(node, ast.Constant):
        return node.value
    return None


#: Callables whose *result* has a known unit (matched on the trailing
#: name, so both ``tell_bits()`` and ``reader.tell_bits()`` classify).
_BIT_RESULT_CALLS = {
    "tell_bits", "bits_remaining", "bytes_to_bits", "intra_byte_bits",
    "BitOffset",
}
#: ``tell`` is the stdlib file-position idiom (bytes); the bit-domain
#: reader deliberately names its counterpart ``tell_bits``.
_BYTE_RESULT_CALLS = {"bits_to_bytes", "ceil_bits_to_bytes", "ByteOffset", "tell"}


class UnitEvaluator:
    """Abstract evaluator: ``ast.expr`` -> :class:`Unit`.

    Precedence per the module docstring: a dataflow binding in ``env``
    wins, then the expression's own structure (conversions, known
    calls), then the identifier's name tokens.
    """

    def __init__(self, env: Env | None = None) -> None:
        self.env = env if env is not None else {}

    def unit_of(self, node: ast.expr) -> Unit:
        if isinstance(node, ast.Name):
            bound = self.env.get(node.id)
            if isinstance(bound, Unit) and bound is not Unit.UNKNOWN:
                return bound
            return unit_of_name(node.id)
        if isinstance(node, ast.Attribute):
            return unit_of_name(node.attr)
        if isinstance(node, ast.Constant):
            return Unit.UNKNOWN
        if isinstance(node, ast.UnaryOp):
            return self.unit_of(node.operand)
        if isinstance(node, ast.BinOp):
            return self._unit_of_binop(node)
        if isinstance(node, ast.IfExp):
            return join_units(self.unit_of(node.body), self.unit_of(node.orelse)) or Unit.UNKNOWN
        if isinstance(node, ast.Call):
            return self._unit_of_call(node)
        if isinstance(node, ast.Subscript):
            # An element of a collection named for its unit (e.g.
            # ``block_start_bits[i]``) carries that unit.
            if isinstance(node.value, ast.Name):
                return unit_of_name(node.value.id)
            if isinstance(node.value, ast.Attribute):
                return unit_of_name(node.value.attr)
            return Unit.UNKNOWN
        if isinstance(node, ast.NamedExpr):
            return self.unit_of(node.value)
        return Unit.UNKNOWN

    # -- helpers -------------------------------------------------------------

    def _unit_of_binop(self, node: ast.BinOp) -> Unit:
        left, right, op = node.left, node.right, node.op
        # byte -> bit: ``x * 8`` / ``8 * x`` / ``x << 3``
        if isinstance(op, ast.Mult) and 8 in (_const_value(left), _const_value(right)):
            operand = right if _const_value(left) == 8 else left
            src = self.unit_of(operand)
            return Unit.BIT_OR_BYTE if src is Unit.BIT else Unit.BIT
        if isinstance(op, ast.LShift) and _const_value(right) == 3:
            src = self.unit_of(left)
            return Unit.BIT_OR_BYTE if src is Unit.BIT else Unit.BIT
        # bit -> byte: ``x // 8`` / ``x >> 3``
        if isinstance(op, ast.FloorDiv) and _const_value(right) == 8:
            src = self.unit_of(left)
            return Unit.BIT_OR_BYTE if src is Unit.BYTE else Unit.BYTE
        if isinstance(op, ast.RShift) and _const_value(right) == 3:
            src = self.unit_of(left)
            return Unit.BIT_OR_BYTE if src is Unit.BYTE else Unit.BYTE
        # intra-byte remainder: ``x & 7`` / ``x % 8`` keeps bit units.
        if isinstance(op, ast.BitAnd) and 7 in (_const_value(left), _const_value(right)):
            operand = right if _const_value(left) == 7 else left
            return Unit.BIT if self.unit_of(operand) is Unit.BIT else Unit.UNKNOWN
        if isinstance(op, ast.Mod) and _const_value(right) == 8:
            return Unit.BIT if self.unit_of(left) is Unit.BIT else Unit.UNKNOWN
        # Offset arithmetic: addition/subtraction preserves the unit;
        # a unitless operand (constants, counts) is absorbed.
        if isinstance(op, (ast.Add, ast.Sub)):
            return join_units(self.unit_of(left), self.unit_of(right)) or Unit.UNKNOWN
        return Unit.UNKNOWN

    def _unit_of_call(self, node: ast.Call) -> Unit:
        name = ""
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        if name in _BIT_RESULT_CALLS:
            return Unit.BIT
        if name in _BYTE_RESULT_CALLS:
            return Unit.BYTE
        if name in ("min", "max") and node.args:
            unit: Unit | None = Unit.UNKNOWN
            for arg in node.args:
                unit = join_units(unit, self.unit_of(arg))
            return unit or Unit.UNKNOWN
        if name in ("int", "abs") and len(node.args) == 1:
            return self.unit_of(node.args[0])
        return Unit.UNKNOWN
