"""Decompression index for plain gzip files (paper ref [11], Heng Li).

The related-work alternative to undetermined-context random access:
*one* initial sequential decompression records checkpoints — (bit
offset, 32 KiB window, uncompressed offset) — after which any location
is reachable by decoding at most ``span`` bytes from the nearest
checkpoint with a fully *known* context.  The trade-offs the paper
names: the index must be built (full sequential pass), stored
(~32 KiB/checkpoint raw; sparse and compressed here), and shipped
alongside the file — useless when a file is read only once, which is
pugz's niche.

Sparse windows
--------------

A checkpoint's interval reads little of its window: the context a
block uses decays within a few KiB (the paper's §VI-A, Figure 4), and
on FASTQ an interval reads ~4,000 of the 32,768 bytes.  So each
checkpoint stores a bitmap of the window positions its interval reads
directly (:func:`repro.deflate.tokens.window_reach`, found by the
builders as each block is decoded) and only those bytes.  A byte whose
bit is clear is never read, so :meth:`Checkpoint.history` zero-fills
it exactly.  Windows this small make a checkpoint at every block
affordable, and entry points inside blocks too (see
:data:`DEFAULT_SPAN`).  Indexes written before sparse windows (v1, v2)
load with every window position stored.

Checkpoint kinds
----------------

* ``"block"`` — a DEFLATE block boundary inside a member, carrying the
  bytes of the 32 KiB of history before it that its interval reads
  (a sparse window, above).
* ``"token"`` — a token start inside a Huffman block longer than
  ``span``: the block is cut right after matches into pieces at most
  ``span`` long (:func:`repro.deflate.tokens.piece_starts`; longer
  only across a literal run of nearly ``span`` bytes), and each cut
  is an entry point with its own sparse window, which may include the
  block's own earlier output.  Its block's header is at the nearest
  preceding ``"block"`` or ``"member"`` checkpoint: a decode from it
  takes that header from the :class:`IntervalCache`, or parses it
  from a small ``pread``, then decodes the body from the token's bit.
* ``"member"`` — the first block of a gzip member, whose DEFLATE
  context is *empty* by construction.  Multi-member ("blocked") files
  get one per member, keeping ``uoffset`` continuous across member
  boundaries; extraction never decodes across a member seam with a
  stale window, because decoding from any checkpoint stops at that
  member's BFINAL block and resumes from the next member checkpoint.

Together they are emitted so that no two consecutive checkpoints are
more than ``span`` output bytes apart (the O(1)-seek guarantee: a warm
seek decodes at most ``span`` bytes before reaching its target).

Sources and ranged I/O
----------------------

``build_index`` and ``read_at`` accept ``bytes`` (the historical
signature), a filesystem path, a seekable binary file object, or a
:class:`repro.io.source.ByteSource`.  Extraction reads only the
compressed range ``[checkpoint.byte_offset, next relevant checkpoint)``
— the whole file is never materialised for a warm seek.

Decoded-interval cache
----------------------

A decode from a checkpoint stops once it has the bytes asked for:
right after the first match whose copy reaches them, or at the end of
the block they are reached in (``inflate``'s ``stop_output``).  Every
checkpoint starts at a block boundary or right after a match, so the
decode stops at the next checkpoint at the latest, and a read crossing
one continues from it.  Given an :class:`IntervalCache`,
``read_at`` keeps what it decoded of each interval: a later read inside
it decodes nothing, and one past it resumes where the decode stopped,
inside a block if need be, with the last 32 KiB of ``window + data`` as
history — so while an interval stays cached, each of its bytes is
decoded once.  The cache also keeps the block headers parsed at
``"block"`` and ``"member"`` checkpoints, decode tables included, so
while a header stays cached no read parses it or reads it again.
"""

from __future__ import annotations

import io
import struct
import threading
import zlib
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.deflate import constants as C
from repro.deflate.bitio import BitReader
from repro.deflate.constants import WINDOW_SIZE
from repro.deflate.inflate import BlockHeader, inflate, read_block_header
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
    "CHECKPOINT_TOKEN",
    "Checkpoint",
    "GzipIndex",
    "CACHED_HEADERS",
    "CACHED_INTERVALS",
    "DEFAULT_SPAN",
    "IntervalCache",
    "MASK_BYTES",
    "block_checkpoints",
    "build_index",
    "load_or_rebuild",
]

#: v1 blob magic (single-member, block checkpoints only) — still read.
_MAGIC = b"RPZIDX1\x00"
#: v2 blob magic (multi-member, kind-tagged checkpoints) — still read.
_MAGIC2 = b"RPZIDX2\x00"
#: v3 blob magic (sparse windows: a position bitmap plus stored bytes).
_MAGIC3 = b"RPZIDX3\x00"
#: v4 blob magic (the v3 layout plus the ``"token"`` kind).
_MAGIC4 = b"RPZIDX4\x00"
#: Envelope kind tags (see repro.index.integrity): each blob version
#: gets its own tag, so a loader that predates it fails loudly instead
#: of misparsing.
_KIND_V1 = b"ZRAN"
_KIND_V2 = b"ZRN2"
_KIND_V3 = b"ZRN3"
_KIND_V4 = b"ZRN4"

CHECKPOINT_BLOCK = "block"
CHECKPOINT_MEMBER = "member"
CHECKPOINT_TOKEN = "token"

#: Default checkpoint spacing (uncompressed bytes) for every builder
#: and reader.  Every gzip -6 block of FASTQ (~32 KB of output) is cut
#: once inside, so a warm 4 KiB read decodes ~12 KB on average and at
#: most span + 4 KiB plus one token.  The curve of
#: ``benchmarks/bench_span.py`` (docs/PERFORMANCE.md "Token-granular
#: checkpoints") picks it: 8 KiB reads ~1 ms faster still, for a
#: sidecar 60 % larger.
DEFAULT_SPAN = 16 * 1024

#: Decoded checkpoint intervals an :class:`IntervalCache` keeps: at
#: most 4 x span of output (~64 KB at the default span) while every
#: block longer than the span can be cut.
CACHED_INTERVALS = 4

#: Parsed block headers an :class:`IntervalCache` keeps.  Each holds
#: the decode tables its decodes built: ~54 KB per dynamic header of
#: gzip -6 FASTQ (13.3 MB for the 249 blocks of an 8 MB file, measured
#: with tracemalloc), about 0.5 MB for one whose litlen and distance
#: codes are both 15 bits long, more where the numpy kernel decoded
#: the block.  256 covers every block of an 8 MB gzip -6 file, so
#: random reads over one parse each header once.
CACHED_HEADERS = 256

_KIND_CODES = {CHECKPOINT_BLOCK: 0, CHECKPOINT_MEMBER: 1, CHECKPOINT_TOKEN: 2}
_KIND_NAMES = {code: name for name, code in _KIND_CODES.items()}

#: Bytes that always hold a block header, from any bit of its first
#: byte: 3 + 14 + 19 x 3 bits, then at most 7 + 7 bits per code length.
_MAX_HEADER_BYTES = (3 + 14 + 19 * 3 + (C.MAX_HLIT + C.MAX_HDIST) * 14) // 8 + 2

#: Bytes of a packed 32 KiB window-position bitmap.
MASK_BYTES = WINDOW_SIZE // 8


def _full_mask(length: int) -> bytes:
    """The bitmap of a window whose last ``length`` positions are all
    stored — how a window written in full (v1, v2) reads."""
    if length > WINDOW_SIZE:
        raise ValueError(f"window of {length} bytes exceeds {WINDOW_SIZE}")
    zero_bytes, zero_bits = divmod(WINDOW_SIZE - length, 8)
    partial = bytes([0xFF >> zero_bits]) if zero_bits else b""
    return b"\0" * zero_bytes + partial + b"\xff" * (MASK_BYTES - zero_bytes - len(partial))


def _pread(src: ByteSource, offset: int, size: int, stats) -> bytes:
    """``src.pread``, counted in ``stats`` (a
    :class:`~repro.index.seekable.SeekStats`) when given."""
    raw = src.pread(offset, size)
    if stats is not None:
        stats.pread_calls += 1
        stats.compressed_bytes_read += len(raw)
    return raw


@dataclass(frozen=True)
class Checkpoint:
    """One random-access entry point into the compressed stream."""

    #: Bit offset of a block header in the compressed stream (of the
    #: token's first bit for a ``"token"`` checkpoint).
    bit_offset: BitOffset
    #: Uncompressed offset the block starts at (continuous across
    #: member boundaries).
    uoffset: ByteOffset
    #: The stored bytes of the 32 KiB preceding ``uoffset``: those at
    #: the positions ``mask`` marks, oldest first (empty for
    #: member-boundary checkpoints: a fresh member has no history).
    window: bytes
    #: ``"block"``, ``"token"`` or ``"member"`` (see module docstring).
    kind: str = CHECKPOINT_BLOCK
    #: Packed bitmap (``np.packbits`` order, :data:`MASK_BYTES` long) of
    #: the stored window positions: unpacked bit ``j`` is the byte
    #: ``WINDOW_SIZE - j`` before ``uoffset``.  Omitted, it marks the
    #: last ``len(window)`` positions: ``window`` is then whole.
    mask: bytes | None = None

    def __post_init__(self) -> None:
        if self.mask is None:
            object.__setattr__(self, "mask", _full_mask(len(self.window)))
        if len(self.mask) != MASK_BYTES:
            raise ValueError(f"window mask of {len(self.mask)} bytes, not {MASK_BYTES}")
        stored = int.from_bytes(self.mask, "big").bit_count()
        if stored != len(self.window):
            raise ValueError(
                f"window mask marks {stored} positions but {len(self.window)} bytes are stored"
            )

    @property
    def byte_offset(self) -> ByteOffset:
        """Byte containing the checkpoint's first header bit."""
        return ByteOffset(self.bit_offset >> 3)

    @property
    def intra_byte_bit(self) -> int:
        """Bit position of the header within :attr:`byte_offset`."""
        return self.bit_offset & 7

    def history(self) -> bytes:
        """The window a decode from this checkpoint starts after: from
        the oldest stored position up to ``uoffset``, zero at every
        position not stored (the interval never reads those)."""
        if not self.window:
            return b""
        stored = np.unpackbits(np.frombuffer(self.mask, dtype=np.uint8)).view(bool)
        first = int(stored.argmax())
        out = np.zeros(WINDOW_SIZE - first, dtype=np.uint8)
        out[stored[first:]] = np.frombuffer(self.window, dtype=np.uint8)
        return out.tobytes()


#: An :class:`IntervalCache` entry: ``(data, end_bit, open_block)``.
_Entry = tuple[bytes, int | None, BlockHeader | None]


class IntervalCache:
    """LRU of decoded checkpoint intervals, keyed by checkpoint index,
    and LRU of parsed block headers, keyed by the index of the
    ``"block"`` or ``"member"`` checkpoint at the header.

    An interval entry is ``(data, end_bit, open_block)``: the output
    decoded so far from the checkpoint, the absolute bit where that
    decode stopped (``None`` once the interval is whole: it reached the
    next checkpoint or the member's BFINAL block) and, when that bit is
    inside a block, the block's header.  A header entry is
    ``(header, body_bit)``: a Huffman block's header, with its decode
    tables once a decode has built them, and the absolute bit its body
    starts at, so a later decode from that checkpoint, or from a
    ``"token"`` checkpoint inside its block, reads and parses no header.
    Entries are immutable and replaced whole, so concurrent readers may
    decode the same blocks twice but never see a torn entry.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[int, _Entry] = OrderedDict()
        self._headers: OrderedDict[int, tuple[BlockHeader, int]] = OrderedDict()
        self._lock = threading.Lock()

    def _get(self, lru: OrderedDict, index: int):
        with self._lock:
            value = lru.get(index)
            if value is not None:
                lru.move_to_end(index)
            return value

    def _put(self, lru: OrderedDict, index: int, value, bound: int) -> None:
        with self._lock:
            lru[index] = value
            lru.move_to_end(index)
            while len(lru) > bound:
                lru.popitem(last=False)

    def get(self, index: int) -> _Entry | None:
        return self._get(self._entries, index)

    def put(self, index: int, entry: _Entry) -> None:
        self._put(self._entries, index, entry, CACHED_INTERVALS)

    def header(self, index: int) -> tuple[BlockHeader, int] | None:
        return self._get(self._headers, index)

    def put_header(self, index: int, header: BlockHeader, body_bit: int) -> None:
        self._put(self._headers, index, (header, body_bit), CACHED_HEADERS)

    def items(self) -> list[tuple[int, _Entry]]:
        """Snapshot of the interval entries, least recently used first."""
        with self._lock:
            return list(self._entries.items())

    def header_indexes(self) -> list[int]:
        """Checkpoint indexes of the cached headers, least recently
        used first."""
        with self._lock:
            return list(self._headers)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._headers.clear()

    def __len__(self) -> int:
        return len(self._entries)


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

    def _compressed_bound(
        self, start_index: int, target_uoffset: int, src: ByteSource
    ) -> tuple[int, int]:
        """Byte offsets bounding a decode from checkpoint ``start_index``
        up to output ``target_uoffset``: where its decoding should end,
        and where the compressed data it may read ends.

        The first checkpoint at/after the target starts right after the
        match that writes the last needed byte or later (a block
        boundary, or a piece start, which follows a match), so the
        decode ends at it or before.  But the numpy kernel decodes a
        whole block before it cuts it at the stop, so the read runs on
        to the first ``"block"`` or ``"member"`` checkpoint from there:
        the end of the block holding the last needed byte at the latest.
        """
        cps = self.checkpoints
        j = bisect_left(self._offsets(), target_uoffset, lo=start_index + 1)
        k = j
        while k < len(cps) and cps[k].kind == CHECKPOINT_TOKEN:
            k += 1
        if k < len(cps):
            read_end = (cps[k].bit_offset + 7) >> 3
        else:
            read_end = min(self.csize, src.size()) if self.csize else src.size()
        if j == k:
            return read_end, read_end
        return min((cps[j].bit_offset + 7) >> 3, read_end), read_end

    def _block_header(
        self, src: ByteSource, index: int, stats=None, cache: IntervalCache | None = None
    ) -> BlockHeader:
        """Header of the Huffman block that token checkpoint ``index``
        sits in: the block at the nearest preceding ``"block"`` or
        ``"member"`` checkpoint, from ``cache`` or else parsed from a
        ``pread`` no longer than the longest header (and then cached)."""
        cp = self.checkpoints[index]
        h = index
        while h >= 0 and self.checkpoints[h].kind == CHECKPOINT_TOKEN:
            h -= 1
        if h < 0:
            raise IndexIntegrityError(
                f"token checkpoint {index} has no block checkpoint before it", stage="zran"
            )
        cached = cache.header(h) if cache is not None else None
        if cached is not None and cached[1] <= cp.bit_offset:
            return cached[0]
        head = self.checkpoints[h]
        raw = _pread(
            src, head.byte_offset, min(_MAX_HEADER_BYTES, cp.byte_offset + 1 - head.byte_offset),
            stats,
        )
        reader = BitReader(raw, head.intra_byte_bit)
        header = read_block_header(reader)
        if stats is not None:
            stats.headers_parsed += 1
        body_bit = 8 * head.byte_offset + reader.tell_bits()
        if header.btype == C.BTYPE_STORED or body_bit > cp.bit_offset:
            raise RandomAccessError(
                f"token checkpoint {index} is not inside the Huffman block "
                f"at bit {head.bit_offset}",
                stage="zran",
            )
        if cache is not None:
            cache.put_header(h, header, body_bit)
        return header

    def _decode_from(
        self, src: ByteSource, index: int, need: int, stats=None, kernel=None,
        cache: IntervalCache | None = None,
    ) -> bytes:
        """Output of checkpoint ``index``'s interval: at least ``need``
        bytes, unless the interval ends first (at the next checkpoint or
        the member's BFINAL block), and never a byte past its end.
        Reads only the compressed range that decode requires; with a
        ``cache``, decodes only what the cached entry lacks and stores
        the longer entry, and starts a decode from a block or member
        checkpoint whose header it holds at the block's body."""
        from repro.perf.kernels import KERNELS, resolve_kernel

        cp = self.checkpoints[index]
        stop = (
            self.checkpoints[index + 1].uoffset
            if index + 1 < len(self.checkpoints)
            else self.usize
        )
        size = stop - cp.uoffset
        need = min(need, size)
        entry = cache.get(index) if cache is not None else None
        # Parse the header at the checkpoint here, to keep it.
        parse_header = False
        if entry is None:
            if cp.kind == CHECKPOINT_TOKEN:
                entry = (b"", cp.bit_offset, self._block_header(src, index, stats, cache))
            elif cache is not None and (held := cache.header(index)) is not None:
                entry = (b"", held[1], held[0])
            else:
                entry = (b"", cp.bit_offset, None)
                parse_header = cache is not None
        data, end_bit, block = entry
        if len(data) >= need or end_bit is None:
            return data
        window = (cp.history() + data[-WINDOW_SIZE:])[-WINDOW_SIZE:]
        start_byte = end_bit >> 3
        decode_end, end_byte = self._compressed_bound(index, cp.uoffset + need, src)
        # The kernel choice sees the bytes this decode takes, not the
        # rest of the block it may read.
        spec = resolve_kernel(kernel)
        if not spec.use_vectorized(decode_end - start_byte):
            spec = KERNELS["pure"]
        while True:
            comp = _pread(src, start_byte, max(0, end_byte - start_byte), stats)
            try:
                if parse_header and 8 * len(comp) - (end_bit & 7) >= 3:
                    # The bits inflate would parse it from (a failed
                    # parse raises what inflate would, and keeps nothing).
                    reader = BitReader(comp, end_bit & 7)
                    block = read_block_header(reader)
                    end_bit = 8 * start_byte + reader.tell_bits()
                    parse_header = False
                    if stats is not None:
                        stats.headers_parsed += 1
                    if block.btype != C.BTYPE_STORED:
                        cache.put_header(index, block, end_bit)
                result = inflate(
                    comp,
                    start_bit=end_bit - 8 * start_byte,
                    window=window,
                    stop_output=need - len(data),
                    kernel=spec,
                    open_block=block,
                )
                break
            except DeflateError as exc:
                # The bound was short (possible only for damaged or
                # legacy indexes whose checkpoints misplace a block
                # boundary): widen geometrically, give up only at EOF.
                total = src.size()
                if end_byte >= total:
                    if exc.bit_offset is not None:
                        # Report the offset from the checkpoint's byte,
                        # as a decode from the checkpoint itself would.
                        exc.bit_offset += 8 * (start_byte - cp.byte_offset)
                    raise
                end_byte = min(total, start_byte + 2 * max(1, end_byte - start_byte))
        if stats is not None:
            stats.inflate_calls += 1
            stats.decoded_bytes += len(result.data)
            # inflate parsed the header of every block it decoded or
            # stopped in but the one it was given.
            stats.headers_parsed += (
                len(result.blocks) + (result.open_block is not None) - (block is not None)
            )
        data += result.data
        if result.final_seen or len(data) >= size:
            # Whole.  Only an index whose token checkpoint follows a
            # literal (none this module builds) lets a decode run past
            # the interval's end, and bytes past it may have come from
            # window positions this checkpoint did not store.
            entry = (data[:size], None, None)
        else:
            entry = (data, 8 * start_byte + result.end_bit, result.open_block)
        if cache is not None:
            cache.put(index, entry)
        return entry[0]

    def read_at(
        self, source, uoffset: ByteOffset, size: int, *, stats=None, kernel=None,
        cache: IntervalCache | None = None,
    ) -> bytes:
        """Extract ``size`` uncompressed bytes starting at ``uoffset``.

        ``source`` may be the compressed file as bytes (the historical
        signature), a path, a binary file object, or a
        :class:`~repro.io.source.ByteSource`.  Spans crossing checkpoints
        are stitched from per-interval decodes — a member's stale window
        is never carried into the next member.  ``cache`` (owned by the
        caller, for this index and source only) keeps decoded intervals
        between calls.
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
            decoded = self._decode_from(src, i, skip + remaining, stats, kernel, cache)
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
        """Serialise as a v4 blob: per checkpoint, the window bitmap and
        its stored bytes deflate-compressed together — ~2.7 KB for a
        gzip -6 FASTQ block checkpoint (a whole window took ~17 KB).
        v4 is the v3 layout with the ``"token"`` kind added."""
        out = io.BytesIO()
        out.write(_MAGIC4)
        out.write(
            struct.pack(
                "<QQQI", self.usize, self.span, self.csize, len(self.checkpoints)
            )
        )
        for cp in self.checkpoints:
            cw = zlib.compress(cp.mask + cp.window, 2)
            out.write(
                struct.pack(
                    "<BQQII",
                    _KIND_CODES[cp.kind],
                    cp.bit_offset,
                    cp.uoffset,
                    len(cp.window),
                    len(cw),
                )
            )
            out.write(cw)
        return out.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "GzipIndex":
        parsers = (
            (_MAGIC4, cls._parse_v4),
            (_MAGIC3, cls._parse_v3),
            (_MAGIC2, cls._parse_v2),
            (_MAGIC, cls._parse_v1),
        )
        for magic, parse in parsers:
            if data[: len(magic)] == magic:
                try:
                    return parse(data, len(magic))
                except (struct.error, zlib.error, ValueError) as exc:
                    # Malformed contents past the magic: surface as the
                    # structured integrity error, not a parser crash.
                    raise IndexIntegrityError(
                        f"malformed zran index blob: {exc}", stage="zran"
                    ) from exc
        raise GzipFormatError("not a gzip index blob", stage="zran")

    @staticmethod
    def _payload(data: bytes, pos: int, clen: int, n_before: int) -> bytes:
        """Inflate one checkpoint's ``clen`` compressed bytes at ``pos``."""
        if pos + clen > len(data):
            raise IndexIntegrityError(
                f"zran index truncated inside checkpoint {n_before}", stage="zran"
            )
        return zlib.decompress(data[pos : pos + clen])

    @classmethod
    def _parse_v1(cls, data: bytes, pos: int) -> "GzipIndex":
        usize, span, n = struct.unpack_from("<QQI", data, pos)
        pos += 20
        cps = []
        for _ in range(n):
            bit_offset, uoffset, clen = struct.unpack_from("<QQI", data, pos)
            pos += 20
            window = cls._payload(data, pos, clen, len(cps))
            pos += clen
            # v1 indexed a single member whose checkpoint 0 was the
            # member's first block with empty history — exactly a
            # member checkpoint in the v2 vocabulary.
            kind = CHECKPOINT_MEMBER if not window and uoffset == 0 else CHECKPOINT_BLOCK
            cps.append(Checkpoint(bit_offset, uoffset, window, kind))
        return cls(checkpoints=cps, usize=usize, span=span)

    @classmethod
    def _parse_v2(cls, data: bytes, pos: int) -> "GzipIndex":
        usize, span, csize, n = struct.unpack_from("<QQQI", data, pos)
        pos += 28
        cps = []
        for _ in range(n):
            code, bit_offset, uoffset, clen = struct.unpack_from("<BQQI", data, pos)
            pos += 21
            kind = cls._kind(code, len(cps))
            window = cls._payload(data, pos, clen, len(cps))
            pos += clen
            cps.append(Checkpoint(bit_offset, uoffset, window, kind))
        return cls(checkpoints=cps, usize=usize, span=span, csize=csize)

    @classmethod
    def _parse_v3(cls, data: bytes, pos: int, tokens: bool = False) -> "GzipIndex":
        usize, span, csize, n = struct.unpack_from("<QQQI", data, pos)
        pos += 28
        cps = []
        for _ in range(n):
            code, bit_offset, uoffset, stored, clen = struct.unpack_from("<BQQII", data, pos)
            pos += 25
            kind = cls._kind(code, len(cps), tokens)
            payload = cls._payload(data, pos, clen, len(cps))
            pos += clen
            if len(payload) != MASK_BYTES + stored:
                raise IndexIntegrityError(
                    f"checkpoint {len(cps)} holds {len(payload) - MASK_BYTES} window "
                    f"bytes, its header says {stored}",
                    stage="zran",
                )
            mask, window = payload[:MASK_BYTES], payload[MASK_BYTES:]
            cps.append(Checkpoint(bit_offset, uoffset, window, kind, mask))
        return cls(checkpoints=cps, usize=usize, span=span, csize=csize)

    @classmethod
    def _parse_v4(cls, data: bytes, pos: int) -> "GzipIndex":
        index = cls._parse_v3(data, pos, tokens=True)
        head = None
        for i, cp in enumerate(index.checkpoints):
            if cp.kind != CHECKPOINT_TOKEN:
                head = cp
            elif head is None or not (
                head.bit_offset < cp.bit_offset and head.uoffset < cp.uoffset
            ):
                # A decode from a token checkpoint parses its block's
                # header at the block or member checkpoint before it.
                raise IndexIntegrityError(
                    f"token checkpoint {i} has no block or member checkpoint "
                    f"before it in its block",
                    stage="zran",
                )
        return index

    @staticmethod
    def _kind(code: int, n_before: int, tokens: bool = False) -> str:
        if code not in _KIND_NAMES or (code == _KIND_CODES[CHECKPOINT_TOKEN] and not tokens):
            raise IndexIntegrityError(
                f"unknown checkpoint kind {code} at checkpoint {n_before}", stage="zran"
            )
        return _KIND_NAMES[code]

    # -- crash-safe file persistence ----------------------------------

    def save(self, path: str) -> None:
        """Write the index to ``path``: sealed (versioned + CRC32
        checksummed, see :mod:`repro.index.integrity`) and atomically
        renamed into place, so a crash mid-write can never leave a
        torn sidecar."""
        atomic_write_bytes(path, seal(_KIND_V4, self.to_bytes()))

    @classmethod
    def load(cls, path: str) -> "GzipIndex":
        """Read an index file written by :meth:`save`.

        Accepts every generation: the current sealed v4 envelope, the
        sealed v3, v2 and v1 envelopes (kinds ``ZRN3``, ``ZRN2`` and
        ``ZRAN``) and bare blobs; anything else that fails validation
        raises :class:`~repro.errors.IndexIntegrityError`.
        """
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[: len(_MAGIC)] in (_MAGIC, _MAGIC2, _MAGIC3, _MAGIC4):
            return cls.from_bytes(blob)  # legacy unsealed file
        kind = blob[8:12]
        known = kind in (_KIND_V1, _KIND_V2, _KIND_V3, _KIND_V4)
        return cls.from_bytes(unseal(blob, kind if known else _KIND_V4))


def block_checkpoints(
    pieces, reach, member_out: bytes, uoffset: int, span: int
) -> list[Checkpoint]:
    """The ``"block"`` and ``"token"`` checkpoints of one member,
    ``span`` bytes apart.

    ``pieces`` holds ``(start_bit, out_start, out_end, cut)`` per piece
    of each DEFLATE block, in stream order, output offsets relative to
    the member's first byte, and ``reach`` each piece's window reach
    as a packed row (:func:`repro.deflate.inflate.piece_table` gives
    both); ``member_out`` is the member's decompressed output and
    ``uoffset`` where it starts in the file's.  A checkpoint lands at a
    piece start whenever finishing that piece — the whole block, for a
    block's first piece — would leave the previous checkpoint (the
    member start at first) more than ``span`` bytes behind.  A block
    longer than ``span`` thus starts at a checkpoint, which a
    ``"token"`` checkpoint at each of its cuts needs (a read from one
    parses the block's header there), and its pieces are at most
    ``span`` long, so consecutive checkpoints are <= ``span`` apart as
    long as every block longer than ``span`` is cut: Huffman blocks of
    a member whose first block is not empty, without a literal run of
    nearly ``span`` bytes.  An empty block gets no checkpoint: the
    block after it starts at the same output byte.

    A checkpoint stores the window bytes its interval reads directly:
    the union of its pieces' reach, each shifted by the piece's
    distance from the checkpoint (a piece 32 KiB or more past it reads
    none of its window).  Every builder shares this rule, so indexes
    agree checkpoint for checkpoint whichever pass found the pieces.
    """
    rows = np.asarray(pieces, dtype=np.int64).reshape(-1, 4).tolist()
    out = np.frombuffer(member_out, dtype=np.uint8)
    checkpoints: list[Checkpoint] = []
    opened: tuple[int, int, str] | None = None  # (start_bit, out_start, kind)
    read = np.zeros(WINDOW_SIZE, dtype=bool)

    def close() -> None:
        start_bit, out_start, kind = opened
        # A decode that succeeded read nothing before the member start.
        read[: max(0, WINDOW_SIZE - out_start)] = False
        pos = np.flatnonzero(read)
        checkpoints.append(
            Checkpoint(
                bit_offset=BitOffset(start_bit),
                uoffset=ByteOffset(uoffset + out_start),
                window=out[pos + (out_start - WINDOW_SIZE)].tobytes(),
                kind=kind,
                mask=np.packbits(read).tobytes(),
            )
        )

    def open_at(start_bit: int, out_start: int, kind: str) -> None:
        nonlocal opened, last_rel
        if opened is not None:
            close()
        opened = (start_bit, out_start, kind)
        read[:] = False
        last_rel = out_start

    # Each block's end: the end of its last piece.
    block_end = [0] * len(rows)
    end = 0
    for i in range(len(rows) - 1, -1, -1):
        if i + 1 == len(rows) or not rows[i + 1][3]:
            end = rows[i][2]
        block_end[i] = end
    last_rel = 0
    # The bit of the latest block or member checkpoint's block header.
    header_bit = rows[0][0] if rows else None
    block_bit = None
    for i, ((start_bit, out_start, out_end, cut), bits) in enumerate(zip(rows, reach)):
        if not cut:
            block_bit = start_bit
            if out_start < block_end[i] and out_start > last_rel and block_end[i] - last_rel > span:
                open_at(start_bit, out_start, CHECKPOINT_BLOCK)
                header_bit = start_bit
        elif header_bit == block_bit and out_start > last_rel and out_end - last_rel > span:
            open_at(start_bit, out_start, CHECKPOINT_TOKEN)
        if opened is None:
            continue
        shift = out_start - opened[1]
        if shift < WINDOW_SIZE:
            read[shift:] |= np.unpackbits(bits, count=WINDOW_SIZE - shift).view(bool)
    if opened is not None:
        close()
    return checkpoints


def build_index(source, span: int = DEFAULT_SPAN) -> GzipIndex:
    """Build an index with checkpoints at most ``span`` output bytes apart.

    Performs the full sequential decompression the technique requires
    (that is its cost): the serial one-chunk case of
    :func:`repro.core.parallel_index.pugz_build_index`, keeping one
    member's output at a time.  Checkpoints land on block boundaries,
    and at token starts inside blocks longer than ``span``, whose bits
    come from the decoded tokens and the block's code lengths, so
    access never needs bit-level probing.  ``source`` may be bytes, a
    path, a binary file object, or a :class:`~repro.io.source.ByteSource`.

    Multi-member ("blocked") files are walked member by member
    (:func:`~repro.deflate.gzipfmt.iter_members`), with ``uoffset``
    kept continuous, and every member start becomes a ``"member"``
    checkpoint, including empty members.  Each member's CRC32 and ISIZE
    are checked against its output, so a corrupt file raises instead of
    yielding an index that serves wrong bytes.
    """
    # Late import: the pugz builder imports this module.
    from repro.core.parallel_index import index_members

    return index_members(source, 1, "serial", None, span)


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
