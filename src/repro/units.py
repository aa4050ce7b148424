"""Units of measure for stream offsets: bits vs. bytes.

The whole design of the two-pass decompressor (Section VI of the paper)
lives at *bit* granularity — DEFLATE blocks start at arbitrary bit
offsets, so block probing, resync and zran checkpoints all pass bit
positions around — while file I/O, chunk planning and container framing
work in *bytes*.  Mixing the two is the classic failure mode of parallel
gzip decoders (rapidgzip's authors call the offset bookkeeping the
hardest part of the implementation), and a swapped unit is silent in
Python: every offset is just an ``int``.

This module gives the two unit systems distinct static types:

* :data:`BitOffset` — an absolute bit position (bit 0 is the LSB of
  byte 0, RFC 1951 packing);
* :data:`ByteOffset` — an absolute byte position.

``typing.NewType`` is erased at runtime (zero cost on the hot paths),
but the names anchor two layers of checking: human readers and type
checkers see them in signatures, and the repo's dataflow lint
(REP014, :mod:`repro.lint.rules.xfunc_units`) seeds its units
lattice from these annotations, so a ``BitOffset`` flowing into a
byte-addressed sink is reported even across intermediate variables.

Conversions must be explicit — use the helpers below (the lint also
recognises the raw idioms ``* 8``, ``<< 3``, ``// 8``, ``>> 3``,
``& 7`` as unit conversions).
"""

from __future__ import annotations

from typing import NewType

__all__ = [
    "BitOffset",
    "ByteOffset",
    "bits_to_bytes",
    "bytes_to_bits",
    "intra_byte_bits",
    "ceil_bits_to_bytes",
]

#: Absolute position in a stream, counted in bits (LSB-first packing).
BitOffset = NewType("BitOffset", int)

#: Absolute position in a stream, counted in bytes.
ByteOffset = NewType("ByteOffset", int)


def bits_to_bytes(bit_offset: BitOffset) -> ByteOffset:
    """Byte containing ``bit_offset`` (floor division by 8)."""
    return ByteOffset(bit_offset >> 3)


def bytes_to_bits(byte_offset: ByteOffset) -> BitOffset:
    """First bit of the byte at ``byte_offset``."""
    return BitOffset(byte_offset * 8)


def intra_byte_bits(bit_offset: BitOffset) -> int:
    """Bit position *within* its byte: ``bit_offset - 8 * (bit_offset // 8)``.

    The invariant ``bytes_to_bits(bits_to_bytes(b)) + intra_byte_bits(b)
    == b`` holds for every non-negative ``b`` (property-tested in
    ``tests/deflate/test_bitio_units_property.py``).
    """
    return bit_offset & 7


def ceil_bits_to_bytes(bit_offset: BitOffset) -> ByteOffset:
    """First whole byte boundary at or after ``bit_offset``."""
    return ByteOffset((bit_offset + 7) >> 3)
