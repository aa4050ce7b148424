"""One random-access story over zran / BGZF / pugz — the seekable facade.

The repo grew three disjoint random-access mechanisms, mirroring the
paper's related-work landscape: a checkpoint index needing a prior
sequential pass (ref [11], :mod:`repro.index.zran`), the blocked BGZF
format whose structure is free random access (ref [12],
:mod:`repro.bgzf`), and pugz-style first-touch parallel decompression
(the paper itself, :mod:`repro.core`).  :class:`SeekableGzipReader`
unifies them behind a file-like interface, picking a backend by
inspecting the compressed stream:

========  ===========================================================
backend   when / what a seek costs
========  ===========================================================
``bgzf``  file is BGZF (BC extra field present): block-table lookup,
          decode one <= 64 KiB block — no index file needed, ever.
``zran``  plain gzip with an index (sidecar on disk, or built on
          first touch): decode at most ``span`` bytes from the
          nearest checkpoint.
========  ===========================================================

A plain gzip file with *no* index gets the pugz cold start: the first
access runs the two-pass parallel decompressor once, with one chunk
per executor worker (one chunk, and so no block-start search, on the
default serial executor), and the block boundaries its first pass
decoded become checkpoints ``span`` bytes apart, each storing the bytes
of the resolved output before it that its interval reads
(:func:`repro.core.parallel_index.pugz_build_index`) — so the index
costs nothing beyond the decompression the first touch needed anyway,
and every later seek decodes at most ``span`` bytes.  Give ``index_path``
to persist it (sealed + atomic, see :mod:`repro.index.integrity`) and
the cold start happens once per file, not once per process.

The reader keeps the last :data:`~repro.index.zran.CACHED_INTERVALS`
checkpoint intervals it decoded (:class:`~repro.index.zran.IntervalCache`),
so a read inside an interval an earlier read decoded costs no inflate,
and sequential reads decode every byte exactly once.  The same cache
keeps the last :data:`~repro.index.zran.CACHED_HEADERS` block headers
parsed at checkpoints, with their decode tables, so a read from a block
an earlier read touched reads and parses no header.

All warm reads are ranged: the compressed file is never materialised
for a warm seek, whichever backend serves it.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass

from repro.deflate.constants import GZIP_MAGIC
from repro.errors import GzipFormatError, IndexIntegrityError, RandomAccessError
from repro.index.zran import DEFAULT_SPAN, GzipIndex, IntervalCache
from repro.io.source import ByteSource

__all__ = [
    "BACKEND_BGZF",
    "BACKEND_ZRAN",
    "SeekStats",
    "SeekableGzipReader",
    "detect_backend",
]

BACKEND_BGZF = "bgzf"
BACKEND_ZRAN = "zran"


def detect_backend(source) -> str:
    """Sniff the compressed stream: ``"bgzf"`` when the first member
    carries the BGZF ``BC`` extra field, else ``"zran"`` for any other
    gzip stream.  Raises :class:`~repro.errors.GzipFormatError` for
    data that is not gzip at all."""
    src = ByteSource.wrap(source)
    head = src.pread(0, 12)
    if len(head) < 10 or head[:2] != GZIP_MAGIC:
        raise GzipFormatError("not a gzip stream", bit_offset=0, stage="seekable")
    flags = head[3]
    if head[2] == 8 and flags & 0x04 and len(head) >= 12:
        # FEXTRA present: scan the subfields for SI1='B', SI2='C',
        # SLEN=2 (the BGZF block-size field).
        (xlen,) = struct.unpack_from("<H", head, 10)
        extra = src.pread(12, xlen)
        pos = 0
        while pos + 4 <= len(extra):
            si1, si2 = extra[pos], extra[pos + 1]
            (slen,) = struct.unpack_from("<H", extra, pos + 2)
            if si1 == 0x42 and si2 == 0x43 and slen == 2:
                return BACKEND_BGZF
            pos += 4 + slen
    return BACKEND_ZRAN


@dataclass
class SeekStats:
    """Observable cost of the reads served so far (test/bench hook)."""

    backend: str = ""
    #: Inflate invocations made on behalf of reads (zran backend).
    inflate_calls: int = 0
    #: Uncompressed bytes produced by those invocations.
    decoded_bytes: int = 0
    #: Compressed bytes fetched with ranged I/O on behalf of reads
    #: (zran backend): for decodes, headers and short-bound retries.
    compressed_bytes_read: int = 0
    #: ``pread`` calls those bytes took (zran backend).
    pread_calls: int = 0
    #: DEFLATE block headers parsed on behalf of reads (zran backend):
    #: the reader keeps those at checkpoints, so each is parsed once
    #: while it stays cached.
    headers_parsed: int = 0
    #: Reads that returned bytes without an inflate call: served from
    #: the decoded-interval cache (zran backend).
    cache_hits: int = 0
    #: Uncompressed bytes returned to callers; ``decoded_bytes /
    #: served_bytes`` is the seek amplification.
    served_bytes: int = 0
    #: Cold starts: how many times an index was built from scratch.
    index_builds: int = 0
    #: True when the index came from a sidecar instead of a build.
    index_loaded: bool = False

    def reset_counters(self) -> None:
        """Zero the per-read counters (keeps backend/provenance flags)."""
        self.inflate_calls = 0
        self.decoded_bytes = 0
        self.compressed_bytes_read = 0
        self.pread_calls = 0
        self.headers_parsed = 0
        self.cache_hits = 0
        self.served_bytes = 0


class SeekableGzipReader(io.RawIOBase):
    """File-like random access over gzip, multi-member gzip, or BGZF.

    Parameters
    ----------
    source:
        The compressed file: bytes, a path, a seekable binary file
        object, or a :class:`~repro.io.source.ByteSource`.
    index_path:
        Optional sidecar path for the zran backend: loaded when
        present and intact, written (sealed + atomic rename) after a
        cold-start build.  Ignored by the BGZF backend, whose block
        table is cheap to re-scan.
    span:
        Checkpoint spacing of a cold-start index — the warm-seek cost
        ceiling.  Ignored when an index is loaded (the loaded index's
        own span applies).
    backend:
        Force ``"bgzf"`` or ``"zran"`` instead of sniffing.
    index:
        Pre-built :class:`~repro.index.zran.GzipIndex` to use directly.
    n_chunks / executor / kernel:
        Cold-start pugz parameters (parallelism and decode kernel).
        ``n_chunks=None`` plans one chunk per executor worker; a
        one-chunk build is the sequential ref-[11] build, with the
        same index.
    verify:
        BGZF backend: verify per-block CRC32/ISIZE on decode.
    """

    def __init__(
        self,
        source,
        *,
        index_path: str | None = None,
        span: int = DEFAULT_SPAN,
        backend: str | None = None,
        index: GzipIndex | None = None,
        n_chunks: int | None = None,
        executor: str = "serial",
        kernel: str | None = None,
        verify: bool = True,
    ) -> None:
        super().__init__()
        self._src = ByteSource.wrap(source)
        self._index_path = index_path
        self._span = span
        self._n_chunks = n_chunks
        self._executor = executor
        self._kernel = kernel
        self._verify = verify
        self._pos = 0
        self._bgzf = None
        self._index = index
        self._cache = IntervalCache()
        self.stats = SeekStats()

        self.backend = backend if backend is not None else detect_backend(self._src)
        if self.backend not in (BACKEND_BGZF, BACKEND_ZRAN):
            raise ValueError(
                f"backend must be '{BACKEND_BGZF}' or '{BACKEND_ZRAN}', "
                f"got {self.backend!r}"
            )
        self.stats.backend = self.backend
        if self.backend == BACKEND_BGZF:
            # Late import: repro.bgzf.format imports repro.index.integrity,
            # which re-enters this package while it is initialising.
            from repro.bgzf.reader import BgzfReader

            self._bgzf = BgzfReader(self._src, verify=verify)
        elif self._index is None and index_path is not None:
            try:
                self._index = GzipIndex.load(index_path)
                self.stats.index_loaded = True
            except (FileNotFoundError, IndexIntegrityError, GzipFormatError):
                # Missing or damaged sidecar: fall through to the cold
                # start, which rebuilds and atomically replaces it.
                self._index = None

    # -- index lifecycle ----------------------------------------------

    def _ensure_index(self) -> GzipIndex:
        """The zran index, building it on first need (the cold start)."""
        if self._index is None:
            # Late import: repro.core.__init__ imports parallel_index,
            # which imports repro.index back.
            from repro.core.parallel_index import pugz_build_index

            _, self._index = pugz_build_index(
                self._src,
                n_chunks=self._n_chunks,
                executor=self._executor,
                kernel=self._kernel,
                span=self._span,
            )
            self.stats.index_builds += 1
            if self._index_path is not None:
                self._index.save(self._index_path)
        return self._index

    @property
    def index(self) -> GzipIndex | None:
        """The zran index, if one exists yet (``None`` before the cold
        start on the zran backend; always ``None`` on BGZF)."""
        return self._index

    @property
    def usize(self) -> int:
        """Total uncompressed size (triggers the cold start on an
        un-indexed zran source — size is not known without it)."""
        if self._bgzf is not None:
            return len(self._bgzf)
        return self._ensure_index().usize

    def __len__(self) -> int:
        return self.usize

    # -- positional reads ---------------------------------------------

    def _check_open(self) -> None:
        if self.closed:
            raise ValueError("I/O operation on closed file")

    def pread(self, uoffset: int, size: int) -> bytes:
        """Read ``size`` uncompressed bytes at ``uoffset`` without
        moving the cursor.  Reads straddling EOF return short; reads
        entirely past EOF return ``b""``.
        """
        self._check_open()
        if size < 0:
            raise ValueError("size must be non-negative")
        if uoffset < 0:
            raise RandomAccessError(
                f"negative read offset {uoffset}", stage="seekable"
            )
        if self._bgzf is not None:
            out = self._bgzf.read_at(uoffset, size)
        else:
            idx = self._ensure_index()
            if uoffset >= idx.usize:
                return b""
            calls = self.stats.inflate_calls
            out = idx.read_at(
                self._src, uoffset, size, stats=self.stats, kernel=self._kernel,
                cache=self._cache,
            )
            if out and self.stats.inflate_calls == calls:
                self.stats.cache_hits += 1
        self.stats.served_bytes += len(out)
        return out

    # -- io.RawIOBase interface ---------------------------------------

    def readable(self) -> bool:
        return True

    def seekable(self) -> bool:
        return True

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> int:
        self._check_open()
        if whence == io.SEEK_SET:
            pos = offset
        elif whence == io.SEEK_CUR:
            pos = self._pos + offset
        elif whence == io.SEEK_END:
            pos = self.usize + offset
        else:
            raise ValueError(f"invalid whence {whence}")
        if pos < 0:
            raise RandomAccessError(
                f"seek to negative offset {pos}", stage="seekable"
            )
        self._pos = pos
        return pos

    def tell(self) -> int:
        return self._pos

    def read(self, size: int = -1) -> bytes:
        self._check_open()
        if size is None or size < 0:
            size = max(0, self.usize - self._pos)
        out = self.pread(self._pos, size)
        self._pos += len(out)
        return out

    def readinto(self, b) -> int:
        chunk = self.read(len(b))
        b[: len(chunk)] = chunk
        return len(chunk)

    def close(self) -> None:
        if not self.closed:
            self._src.close()
            self._cache.clear()
        super().close()
