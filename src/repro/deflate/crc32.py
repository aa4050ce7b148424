"""CRC-32 (gzip / RFC 1952 polynomial), implemented from scratch.

Provides the checksum used by the gzip container code, plus
``crc32_combine`` — the GF(2) trick that lets the parallel compressor
(:mod:`repro.core.pigz`) checksum each chunk independently and stitch
the CRCs together afterwards.

CRC-32 is linear over GF(2), so one serial stream splits into
independent sub-streams exactly, the way Sitaridi et al.
(arXiv:1606.00519) split DEFLATE into data-parallel lanes.  Long inputs
are cut into lanes of ``_LANE`` bytes that numpy steps together, a
little-endian word per step; the lane registers are then folded
pairwise, each level feeding the left operand ``2**j`` zero bytes.
Every operator involved — the word step, the fold levels and
``crc32_combine`` — is one member of a single family: "feed ``2**j``
zero bytes", held as four 256-entry byte tables.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["crc32", "crc32_combine", "Crc32"]

_POLY = 0xEDB88320  # reflected CRC-32 polynomial


def _make_table() -> tuple[int, ...]:
    table = []
    for n in range(256):
        c = n
        for _ in range(8):
            c = (c >> 1) ^ _POLY if c & 1 else c >> 1
        table.append(c)
    return tuple(table)


_TABLE = _make_table()

#: Bytes per lane.  A power of two, so that every fold level is one of
#: the cached power-of-two zero-byte operators.
_LANE_LOG2 = 5
_LANE = 1 << _LANE_LOG2
#: Inputs shorter than this go through the byte loop only: below it,
#: numpy's per-call cost outweighs the lanes (measured crossover,
#: docs/PERFORMANCE.md).
_MIN_LANES = 2048
#: Bytes stepped at once.  Bounds the transient memory (one transposed
#: slab plus per-lane registers) whatever the input size; slabs chain
#: through the running register.
_SLAB = 1 << 20


def _apply(op: np.ndarray, x):
    """Apply a linear operator to a register (an int or a uint32 array)."""
    take = np.take
    return (
        take(op[0], x & 0xFF)
        ^ take(op[1], (x >> 8) & 0xFF)
        ^ take(op[2], (x >> 16) & 0xFF)
        ^ take(op[3], x >> 24)
    )


@functools.cache
def _zero_op(j: int) -> np.ndarray:
    """The operator feeding ``2**j`` zero bytes to a CRC register.

    A ``(4, 256)`` uint32 array whose row ``b`` maps byte ``b`` of the
    register to its image.  Built on first use, one squaring per level.
    """
    if j == 0:
        # One zero byte: c -> TABLE[c & 0xFF] ^ (c >> 8), byte by byte.
        v = np.arange(256, dtype=np.uint32)
        return np.stack([np.array(_TABLE, dtype=np.uint32), v, v << 8, v << 16])
    # Feeding 2**j zeros is feeding 2**(j-1) zeros twice.
    half = _zero_op(j - 1)
    return _apply(half, half)


def _shift(crc: int, nbytes: int) -> int:
    """``crc`` after ``nbytes`` zero bytes, one operator per set bit."""
    j = 0
    while nbytes:
        if nbytes & 1:
            crc = int(_apply(_zero_op(j), crc))
        nbytes >>= 1
        j += 1
    return crc


def _lanes(words: np.ndarray, register: int) -> int:
    """Run ``register`` over a slab of ``(lanes, _LANE // 4)`` words.

    Lane 0 starts from ``register`` and every other lane from 0; linearity
    makes the fold of the lane registers equal to the serial result.
    """
    regs = np.zeros(len(words), dtype=np.uint32)
    regs[0] = register
    # Feeding four data bytes is feeding four zero bytes to the register
    # XOR the word: the slicing-by-4 step is the 2**2 operator.
    step = _zero_op(2)
    for column in np.ascontiguousarray(words.T):
        regs = _apply(step, regs ^ column)
    level = _LANE_LOG2
    while len(regs) > 1:
        if len(regs) & 1:
            # A zero register in front contributes nothing, and keeps
            # every right operand a whole group of 2**level bytes.
            regs = np.concatenate((np.zeros(1, dtype=np.uint32), regs))
        regs = _apply(_zero_op(level), regs[0::2]) ^ regs[1::2]
        level += 1
    return int(regs[0])


def crc32(data: bytes, crc: int = 0) -> int:
    """Update ``crc`` with the bytes-like ``data``; return the new CRC-32.

    ``crc32(b"") == 0`` and chaining matches :func:`zlib.crc32` exactly
    (verified by the test suite).
    """
    c = (crc & 0xFFFFFFFF) ^ 0xFFFFFFFF
    tail = data
    if len(data) >= _MIN_LANES:
        buf = np.frombuffer(data, dtype=np.uint8)
        whole = len(buf) - len(buf) % _LANE
        for start in range(0, whole, _SLAB):
            slab = buf[start : min(start + _SLAB, whole)]
            c = _lanes(slab.view("<u4").reshape(-1, _LANE // 4), c)
        tail = buf[whole:].tobytes()
    table = _TABLE
    for byte in tail:
        c = table[(c ^ byte) & 0xFF] ^ (c >> 8)
    return c ^ 0xFFFFFFFF


class Crc32:
    """Incremental CRC-32 accumulator with a file-like ``update`` API."""

    __slots__ = ("_crc", "_length")

    def __init__(self) -> None:
        self._crc = 0
        self._length = 0

    def update(self, data: bytes) -> None:
        """Fold ``data`` into the running checksum."""
        self._crc = crc32(data, self._crc)
        self._length += len(data)

    @property
    def value(self) -> int:
        """Current CRC-32 of all data seen so far."""
        return self._crc

    @property
    def length(self) -> int:
        """Total number of bytes folded in."""
        return self._length


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """Combine two CRCs: ``crc32_combine(crc(A), crc(B), len(B)) == crc(A+B)``.

    This makes CRC verification embarrassingly parallel: each thread of
    the two-pass decompressor checksums only its own chunk, and the
    combiner runs in O(log len) at the end, over the same cached
    zero-byte operators as the lane fold.
    """
    if len2 <= 0:
        return crc1
    return _shift(crc1, len2) ^ crc2
