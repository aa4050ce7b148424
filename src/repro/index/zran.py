"""Decompression index for plain gzip files (paper ref [11], Heng Li).

The related-work alternative to undetermined-context random access:
*one* initial sequential decompression records checkpoints — (bit
offset, 32 KiB window, uncompressed offset) — after which any location
is reachable by decoding at most ``span`` bytes from the nearest
checkpoint with a fully *known* context.  The trade-offs the paper
names: the index must be built (full sequential pass), stored
(~32 KiB/checkpoint raw; compressed here), and shipped alongside the
file — useless when a file is read only once, which is pugz's niche.

Checkpoint kinds
----------------

* ``"block"`` — a DEFLATE block boundary inside a member, carrying the
  32 KiB of history that precedes it.  Emitted so that no two
  consecutive checkpoints are more than ``span`` output bytes apart
  (the O(1)-seek guarantee: a warm seek decodes at most ``span`` bytes
  before reaching its target).
* ``"member"`` — the first block of a gzip member, whose DEFLATE
  context is *empty* by construction.  Multi-member ("blocked") files
  get one per member, keeping ``uoffset`` continuous across member
  boundaries; extraction never decodes across a member seam with a
  stale window, because decoding from any checkpoint stops at that
  member's BFINAL block and resumes from the next member checkpoint.

Sources and ranged I/O
----------------------

``build_index`` and ``read_at`` accept ``bytes`` (the historical
signature), a filesystem path, a seekable binary file object, or a
:class:`repro.io.source.ByteSource`.  Extraction reads only the
compressed range ``[checkpoint.byte_offset, next relevant checkpoint)``
— the whole file is never materialised for a warm seek.
"""

from __future__ import annotations

import io
import struct
import zlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from repro.deflate.constants import WINDOW_SIZE
from repro.deflate.gzipfmt import check_trailer, parse_gzip_header
from repro.deflate.inflate import inflate
from repro.errors import (
    DeflateError,
    GzipFormatError,
    IndexIntegrityError,
    RandomAccessError,
)
from repro.index.integrity import atomic_write_bytes, seal, unseal
from repro.io.source import ByteSource
from repro.units import BitOffset, ByteOffset

__all__ = [
    "CHECKPOINT_BLOCK",
    "CHECKPOINT_MEMBER",
    "Checkpoint",
    "GzipIndex",
    "DEFAULT_SPAN",
    "block_checkpoints",
    "build_index",
    "load_or_rebuild",
]

#: v1 blob magic (single-member, block checkpoints only) — still read.
_MAGIC = b"RPZIDX1\x00"
#: v2 blob magic (multi-member, kind-tagged checkpoints).
_MAGIC2 = b"RPZIDX2\x00"
#: Envelope kind tags (see repro.index.integrity): v1 payloads were
#: sealed as ZRAN; v2 payloads get their own tag so a v2-unaware
#: loader fails loudly instead of misparsing.
_KIND_V1 = b"ZRAN"
_KIND_V2 = b"ZRN2"

CHECKPOINT_BLOCK = "block"
CHECKPOINT_MEMBER = "member"

#: Default checkpoint spacing (uncompressed bytes) for every builder
#: and reader: a warm 4 KiB read decodes ~span/2 bytes on average,
#: while the sidecar grows by one compressed 32 KiB window per span
#: (see docs/PERFORMANCE.md "Span-honouring cold start").
DEFAULT_SPAN = 256 * 1024

_KIND_CODES = {CHECKPOINT_BLOCK: 0, CHECKPOINT_MEMBER: 1}
_KIND_NAMES = {code: name for name, code in _KIND_CODES.items()}


@dataclass(frozen=True)
class Checkpoint:
    """One random-access entry point into the compressed stream."""

    #: Bit offset of a block header in the compressed stream.
    bit_offset: BitOffset
    #: Uncompressed offset the block starts at (continuous across
    #: member boundaries).
    uoffset: ByteOffset
    #: The 32 KiB of uncompressed data preceding ``uoffset`` (empty for
    #: member-boundary checkpoints: a fresh member has no history).
    window: bytes
    #: ``"block"`` or ``"member"`` (see module docstring).
    kind: str = CHECKPOINT_BLOCK

    @property
    def byte_offset(self) -> ByteOffset:
        """Byte containing the checkpoint's first header bit."""
        return ByteOffset(self.bit_offset >> 3)

    @property
    def intra_byte_bit(self) -> int:
        """Bit position of the header within :attr:`byte_offset`."""
        return self.bit_offset & 7


@dataclass
class GzipIndex:
    """Checkpoint list for a gzip file plus addressing helpers."""

    checkpoints: list[Checkpoint]
    usize: int
    span: int
    #: Compressed file size (0 when unknown — legacy v1 indexes).
    csize: int = 0
    _uoffsets: list[int] = field(default_factory=list, repr=False, compare=False)

    def _offsets(self) -> list[int]:
        """Sorted ``uoffset`` list for bisection (cached; checkpoint
        lists are immutable after construction by convention)."""
        if len(self._uoffsets) != len(self.checkpoints):
            self._uoffsets = [cp.uoffset for cp in self.checkpoints]
        return self._uoffsets

    @property
    def members(self) -> int:
        """Number of gzip members the index covers."""
        return sum(1 for cp in self.checkpoints if cp.kind == CHECKPOINT_MEMBER)

    def nearest_index(self, uoffset: ByteOffset) -> int:
        """Index of the last checkpoint at or before ``uoffset`` — O(log n)."""
        if not self.checkpoints:
            raise RandomAccessError("index has no checkpoints", stage="zran")
        if not 0 <= uoffset < self.usize:
            raise RandomAccessError(
                f"offset {uoffset} outside uncompressed size {self.usize}",
                stage="zran",
            )
        i = bisect_right(self._offsets(), uoffset) - 1
        if i < 0:
            # Possible only for an index whose first checkpoint is not
            # at offset 0 (e.g. a deliberately truncated export); the
            # old code silently decoded from checkpoint 0 here.
            raise RandomAccessError(
                f"offset {uoffset} precedes the first checkpoint "
                f"(uoffset {self.checkpoints[0].uoffset})",
                stage="zran",
            )
        return i

    def nearest(self, uoffset: ByteOffset) -> Checkpoint:
        """Last checkpoint at or before ``uoffset`` — O(log n)."""
        return self.checkpoints[self.nearest_index(uoffset)]

    # -- extraction ---------------------------------------------------

    def _compressed_bound(self, start_index: int, target_uoffset: int, src: ByteSource) -> int:
        """Byte offset past the compressed data needed to decode from
        checkpoint ``start_index`` up to output ``target_uoffset``.

        The first checkpoint at/after the target sits at a block
        boundary no earlier than the end of the block containing the
        last needed byte, so its byte offset bounds the read.
        """
        j = bisect_left(self._offsets(), target_uoffset, lo=start_index + 1)
        if j >= len(self.checkpoints):
            if self.csize:
                return min(self.csize, src.size())
            return src.size()
        return (self.checkpoints[j].bit_offset + 7) >> 3

    def _decode_from(
        self, src: ByteSource, index: int, need: int, stats=None, kernel=None
    ) -> bytes:
        """Decode ``need`` output bytes forward from checkpoint ``index``,
        reading only the compressed range that decode requires."""
        cp = self.checkpoints[index]
        start_byte = cp.byte_offset
        end_byte = self._compressed_bound(index, cp.uoffset + need, src)
        while True:
            comp = src.pread(start_byte, max(0, end_byte - start_byte))
            try:
                result = inflate(
                    comp,
                    start_bit=cp.intra_byte_bit,
                    window=cp.window,
                    max_output=need,
                    kernel=kernel,
                )
                break
            except DeflateError:
                # The bound was short (possible only for damaged or
                # legacy indexes whose checkpoints misplace a block
                # boundary): widen geometrically, give up only at EOF.
                total = src.size()
                if end_byte >= total:
                    raise
                end_byte = min(total, start_byte + 2 * max(1, end_byte - start_byte))
        if stats is not None:
            stats.inflate_calls += 1
            stats.decoded_bytes += len(result.data)
            stats.compressed_bytes_read += len(comp)
        return result.data

    def read_at(
        self, source, uoffset: ByteOffset, size: int, *, stats=None, kernel=None
    ) -> bytes:
        """Extract ``size`` uncompressed bytes starting at ``uoffset``.

        ``source`` may be the compressed file as bytes (the historical
        signature), a path, a binary file object, or a
        :class:`~repro.io.source.ByteSource`.  Spans crossing member
        seams are stitched from per-member decodes — a member's stale
        window is never carried into the next member.
        """
        if size < 0:
            raise ValueError("size must be non-negative")
        if not 0 <= uoffset <= self.usize:
            # Exactly usize is a legal file-like read at EOF (empty
            # result); anything past it is an addressing bug.
            raise RandomAccessError(
                f"offset {uoffset} outside uncompressed size {self.usize}",
                stage="zran",
            )
        src = ByteSource.wrap(source)
        out = bytearray()
        pos = uoffset
        remaining = size
        # Bounded: every iteration either appends at least one byte
        # (remaining shrinks) or raises.
        while remaining > 0 and pos < self.usize:
            i = self.nearest_index(pos)
            cp = self.checkpoints[i]
            skip = pos - cp.uoffset
            decoded = self._decode_from(src, i, skip + remaining, stats, kernel)
            take = decoded[skip : skip + remaining]
            if not take:
                # Decoding from the best checkpoint could not reach
                # ``pos``: the index lacks a member checkpoint past a
                # seam (a damaged or hand-edited export).
                raise RandomAccessError(
                    f"index cannot reach offset {pos}: decoding from "
                    f"checkpoint at uoffset {cp.uoffset} produced only "
                    f"{len(decoded)} bytes",
                    stage="zran",
                )
            out += take
            pos += len(take)
            remaining -= len(take)
        return bytes(out)

    # -- serialisation ------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise (windows are deflate-compressed: DNA windows
        shrink ~4x, making the index ~8 KiB per checkpoint)."""
        out = io.BytesIO()
        out.write(_MAGIC2)
        out.write(
            struct.pack(
                "<QQQI", self.usize, self.span, self.csize, len(self.checkpoints)
            )
        )
        for cp in self.checkpoints:
            cw = zlib.compress(cp.window, 6)
            out.write(
                struct.pack(
                    "<BQQI", _KIND_CODES[cp.kind], cp.bit_offset, cp.uoffset, len(cw)
                )
            )
            out.write(cw)
        return out.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "GzipIndex":
        if data[: len(_MAGIC2)] == _MAGIC2:
            return cls._parse_v2(data)
        if data[: len(_MAGIC)] == _MAGIC:
            return cls._parse_v1(data)
        raise GzipFormatError("not a gzip index blob", stage="zran")

    @classmethod
    def _parse_v1(cls, data: bytes) -> "GzipIndex":
        try:
            pos = len(_MAGIC)
            usize, span, n = struct.unpack_from("<QQI", data, pos)
            pos += 20
            cps = []
            for _ in range(n):
                bit_offset, uoffset, clen = struct.unpack_from("<QQI", data, pos)
                pos += 20
                if pos + clen > len(data):
                    raise IndexIntegrityError(
                        f"zran index truncated inside checkpoint {len(cps)}",
                        stage="zran",
                    )
                window = zlib.decompress(data[pos : pos + clen])
                pos += clen
                # v1 indexed a single member whose checkpoint 0 was the
                # member's first block with empty history — exactly a
                # member checkpoint in the v2 vocabulary.
                kind = (
                    CHECKPOINT_MEMBER
                    if not window and uoffset == 0
                    else CHECKPOINT_BLOCK
                )
                cps.append(Checkpoint(bit_offset, uoffset, window, kind))
        except (struct.error, zlib.error) as exc:
            # Malformed contents past the magic: surface as the
            # structured integrity error, not a parser crash.
            raise IndexIntegrityError(
                f"malformed zran index blob: {exc}", stage="zran"
            ) from exc
        return cls(checkpoints=cps, usize=usize, span=span)

    @classmethod
    def _parse_v2(cls, data: bytes) -> "GzipIndex":
        try:
            pos = len(_MAGIC2)
            usize, span, csize, n = struct.unpack_from("<QQQI", data, pos)
            pos += 28
            cps = []
            for _ in range(n):
                code, bit_offset, uoffset, clen = struct.unpack_from("<BQQI", data, pos)
                pos += 21
                if code not in _KIND_NAMES:
                    raise IndexIntegrityError(
                        f"unknown checkpoint kind {code} at checkpoint {len(cps)}",
                        stage="zran",
                    )
                if pos + clen > len(data):
                    raise IndexIntegrityError(
                        f"zran index truncated inside checkpoint {len(cps)}",
                        stage="zran",
                    )
                window = zlib.decompress(data[pos : pos + clen])
                pos += clen
                cps.append(Checkpoint(bit_offset, uoffset, window, _KIND_NAMES[code]))
        except (struct.error, zlib.error) as exc:
            raise IndexIntegrityError(
                f"malformed zran index blob: {exc}", stage="zran"
            ) from exc
        return cls(checkpoints=cps, usize=usize, span=span, csize=csize)

    # -- crash-safe file persistence ----------------------------------

    def save(self, path: str) -> None:
        """Write the index to ``path``: sealed (versioned + CRC32
        checksummed, see :mod:`repro.index.integrity`) and atomically
        renamed into place, so a crash mid-write can never leave a
        torn sidecar."""
        atomic_write_bytes(path, seal(_KIND_V2, self.to_bytes()))

    @classmethod
    def load(cls, path: str) -> "GzipIndex":
        """Read an index file written by :meth:`save`.

        Accepts every generation: the current sealed v2 envelope, the
        sealed v1 envelope (kind ``ZRAN``) and the bare legacy v1 blob;
        anything else that fails validation raises
        :class:`~repro.errors.IndexIntegrityError`.
        """
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[: len(_MAGIC)] == _MAGIC or blob[: len(_MAGIC2)] == _MAGIC2:
            return cls.from_bytes(blob)  # legacy unsealed file
        kind = blob[8:12]
        if kind == _KIND_V1:
            return cls.from_bytes(unseal(blob, _KIND_V1))
        return cls.from_bytes(unseal(blob, _KIND_V2))


def block_checkpoints(
    blocks, member_out: bytes, uoffset: int, span: int
) -> list[Checkpoint]:
    """The ``"block"`` checkpoints of one member, ``span`` bytes apart.

    ``blocks`` yields ``(start_bit, out_start, out_end)`` per DEFLATE
    block in stream order, output offsets relative to the member's
    first byte; ``member_out`` is the member's decompressed output and
    ``uoffset`` where it starts in the file's.  A checkpoint lands at a
    block start whenever finishing that block would leave the previous
    checkpoint (the member start at first) more than ``span`` bytes
    behind — so consecutive checkpoints are <= ``span`` apart as long
    as no single block exceeds ``span``, which is the warm-seek bound.
    Every builder shares this rule, so indexes agree checkpoint for
    checkpoint whichever pass found the blocks.
    """
    checkpoints: list[Checkpoint] = []
    last_rel = 0
    for start_bit, out_start, out_end in blocks:
        if out_start <= last_rel:
            continue
        if out_end - last_rel > span:
            checkpoints.append(
                Checkpoint(
                    bit_offset=BitOffset(start_bit),
                    uoffset=ByteOffset(uoffset + out_start),
                    window=member_out[max(0, out_start - WINDOW_SIZE) : out_start],
                    kind=CHECKPOINT_BLOCK,
                )
            )
            last_rel = out_start
    return checkpoints


def build_index(source, span: int = DEFAULT_SPAN) -> GzipIndex:
    """Build an index with checkpoints at most ``span`` output bytes apart.

    Performs the full sequential decompression the technique requires
    (that is its cost); checkpoints land on block boundaries, so access
    never needs bit-level probing.  ``source`` may be bytes, a path, a
    binary file object, or a :class:`~repro.io.source.ByteSource`.

    Multi-member ("blocked") files are walked member by member —
    trailer-aware, with ``uoffset`` kept continuous — and every member
    start becomes a ``"member"`` checkpoint, including empty members.
    Each member's CRC32 and ISIZE are checked against its output
    (:func:`~repro.deflate.gzipfmt.check_trailer`), so a corrupt file
    raises instead of yielding an index that serves wrong bytes.
    """
    if span <= 0:
        raise ValueError("span must be positive")
    src = ByteSource.wrap(source)
    # A build decodes every byte once by definition; reading the whole
    # compressed stream here costs no more than that pass itself.
    data = src.read_all()
    if not data:
        raise GzipFormatError("empty input", bit_offset=0, stage="zran")

    checkpoints: list[Checkpoint] = []
    uoffset = 0
    offset = 0
    n = len(data)
    while offset < n:
        payload_start, *_ = parse_gzip_header(data, offset)
        checkpoints.append(
            Checkpoint(
                bit_offset=BitOffset(8 * payload_start),
                uoffset=ByteOffset(uoffset),
                window=b"",
                kind=CHECKPOINT_MEMBER,
            )
        )
        result = inflate(data, start_bit=8 * payload_start)
        if not result.final_seen:
            raise GzipFormatError(
                "member payload ended without a final block",
                bit_offset=result.end_bit,
                stage="zran",
            )
        mdata = result.data
        checkpoints += block_checkpoints(
            ((b.start_bit, b.out_start, b.out_end) for b in result.blocks),
            mdata,
            uoffset,
            span,
        )
        uoffset += len(mdata)
        payload_end = (result.end_bit + 7) // 8
        check_trailer(data, payload_end, mdata)
        offset = payload_end + 8
    return GzipIndex(checkpoints=checkpoints, usize=uoffset, span=span, csize=n)


def load_or_rebuild(
    path: str, source, span: int = DEFAULT_SPAN
) -> tuple[GzipIndex, bool]:
    """Load the index at ``path``, rebuilding it if missing or damaged.

    Returns ``(index, rebuilt)``.  A load that fails its integrity
    check (truncation, bit flip, wrong kind — any
    :class:`~repro.errors.IndexIntegrityError`) or finds no file
    triggers a fresh :func:`build_index` from ``source``; the
    replacement is sealed and atomically renamed over the damaged
    file, so the sidecar self-heals without ever being torn.
    """
    try:
        return GzipIndex.load(path), False
    except (FileNotFoundError, IndexIntegrityError, GzipFormatError):
        index = build_index(source, span=span)
        index.save(path)
        return index, True
