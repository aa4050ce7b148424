"""pugz: exact two-pass parallel decompression of gzip files (Section VI-C).

The algorithm, exactly as in the paper (Figure 3):

1. The compressed payload is split at confirmed DEFLATE block starts
   into ``n`` roughly equal chunks (:mod:`repro.core.chunking`).
2. **First pass** (parallel): every chunk decompresses independently.
   Chunk 0 starts from the true stream beginning (byte domain); chunks
   ``i >= 1`` start from an *undetermined* context of unique marker
   symbols ``U_0..U_32767`` (:mod:`repro.core.marker_inflate`), so the
   origin of every unknown byte is tracked through back-references.
3. **Second pass**: the 32 KiB boundary contexts are resolved
   sequentially (cheap — n × 32 KiB), then every chunk translates its
   markers (:mod:`repro.core.translate`).  The paper runs translation
   in parallel; here it runs in the calling process, which already
   holds every symbol array — one vectorised gather per chunk costs
   less than shipping the symbols to a worker and the bytes back.

One driver runs both passes for the whole-file call and the streamed
one (:func:`repro.core.windowed.iter_pugz`).  It works through the
planned chunks a *stripe* at a time; the whole-file call is one stripe,
then a join.  A stripe of ``s`` chunks keeps only its own symbols
resident — the paper's Discussion projects this lift of the
whole-output-in-memory limit "with little projected impact on
performance".

The paper's threads share memory, so pass-1 output never crosses a
process boundary.  Here it does, and two things keep that cheap: a
:class:`~repro.parallel.executor.ProcessExecutor` keeps one pool for
its lifetime (start-up is paid once, not per map), and each chunk's
symbols travel at their natural width — ``uint8`` for a marker-free
chunk, ``uint16`` otherwise — instead of the decoder's ``int32``
(measurements in docs/PERFORMANCE.md, "Pass-1 transport").

The result is byte-exact for *any* input whose stream is well-formed,
with no heuristics — verified against :func:`gzip.decompress`
throughout the test suite.  Extensions over the paper's implementation:
multi-member (blocked) gzip files are handled member-by-member, and
each member's CRC32 and length can be checked against its trailer, a
CRC chained over the output as it is produced (the paper's pugz skips
CRC).

Fault tolerance (``on_error="recover"``)
----------------------------------------

The paper pitches the machinery for forensics on corrupted FASTQ
archives (Section VI-B).  In the default ``on_error="raise"`` mode a
corrupted chunk aborts the whole run; in ``"recover"`` mode the engine
degrades gracefully instead:

* per-chunk failures are captured (:meth:`Executor.map_outcomes`)
  rather than aborting the pool;
* a failed chunk is re-decoded block by block up to the fault, then
  resynced past it with :func:`repro.core.sync.find_block_start` and
  decoded to its end — so everything decodable on both sides of the
  damage is salvaged;
* data after a fault whose 32 KiB context fell inside a hole renders as
  ``?`` placeholders (the paper's Figure 1 convention) instead of
  failing translation;
* every lost compressed region is recorded as a :class:`PugzHole` in
  the :class:`PugzReport`, and trailer verification failures are
  recorded instead of raised.

The output is then *best effort*: all clean chunks byte-exact, holes
explicit, and the report says precisely what is missing.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.core import marker
from repro.core.chunking import Chunk, plan_chunks
from repro.core.marker_inflate import _seed_window, marker_inflate
from repro.core.sync import find_block_start
from repro.core.translate import translate_chunk_counted
from repro.deflate.constants import WINDOW_SIZE
from repro.deflate.crc32 import crc32
from repro.deflate.gzipfmt import iter_members
from repro.deflate.inflate import inflate, piece_table
from repro.errors import GzipFormatError, ReproError, annotate
from repro.parallel.executor import Executor, owned_executor
from repro.parallel.supervision import SupervisionPolicy, is_execution_fault
from repro.units import BitOffset, ByteOffset

__all__ = [
    "ChunkOutcome",
    "PugzHole",
    "PugzReport",
    "pugz_decompress",
    "pugz_decompress_payload",
]

#: Rendering of undecodable positions in recovered output.
HOLE_BYTE = ord("?")


@dataclass(frozen=True)
class PugzHole:
    """One compressed region whose decompressed bytes were lost.

    ``[start_bit, end_bit)`` is the compressed span that produced no
    output: from where clean decoding stopped to where it resynced (or
    to the end of the chunk's region if no resync succeeded).
    """

    chunk_index: int
    start_bit: BitOffset
    end_bit: BitOffset
    #: Message of the error that opened the hole.
    error: str

    @property
    def start_byte(self) -> ByteOffset:
        return ByteOffset(self.start_bit >> 3)

    @property
    def end_byte(self) -> ByteOffset:
        return ByteOffset((self.end_bit + 7) >> 3)

    def to_dict(self) -> dict:
        return {
            "chunk_index": self.chunk_index,
            "start_bit": self.start_bit,
            "end_bit": self.end_bit,
            "error": self.error,
        }


@dataclass(frozen=True)
class ChunkOutcome:
    """Supervision record of one chunk of pass 1.

    ``status`` mirrors the corresponding ``chunk_outcomes`` string
    (``ok`` / ``salvaged`` / ``lost``); ``degraded_to`` names the rung
    of the degradation ladder that produced the result (``None`` for a
    clean parallel decode, else ``serial`` / ``zlib`` / ``salvage`` /
    ``hole``, or ``restart`` for a chunk decoded again in the calling
    process from where the previous chunk ended, because its planned
    start proved a false block start); ``retries`` counts supervised
    re-attempts and ``wall_time`` the in-worker seconds of the
    decisive attempt.
    """

    index: int
    status: str
    retries: int = 0
    degraded_to: str | None = None
    wall_time: float = 0.0
    #: Message of the error that forced degradation (``None`` if clean).
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "status": self.status,
            "retries": self.retries,
            "degraded_to": self.degraded_to,
            "wall_time": self.wall_time,
            "error": self.error,
        }


@dataclass
class PugzReport:
    """Instrumentation of one parallel decompression run."""

    n_chunks_requested: int
    #: Chunks of every member, in file order (``Chunk.index`` restarts
    #: at 0 with each member); the per-chunk lists below run parallel.
    chunks: list[Chunk] = field(default_factory=list)
    #: Output bytes produced by each chunk in pass 1.
    chunk_output_sizes: list[int] = field(default_factory=list)
    #: Markers remaining in each chunk's output after pass 1.
    chunk_marker_counts: list[int] = field(default_factory=list)
    #: Each chunk's pass-1 DEFLATE blocks as an ``(n, 3)`` int64 array
    #: of ``(start_bit, out_start, out_end)``, output offsets relative
    #: to the chunk's first byte; empty for a salvaged, lost or
    #: zlib-rescued chunk, whose block boundaries are not known.
    chunk_blocks: list[np.ndarray] = field(default_factory=list)
    #: With a ``reach_span``, parallel to ``chunk_blocks``: each
    #: chunk's :func:`~repro.deflate.inflate.piece_table` (its blocks'
    #: pieces, output offsets relative to the chunk's first byte, and
    #: their window reach); empty tables for a chunk whose blocks are
    #: not known, and no entries without a ``reach_span``.
    chunk_pieces: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    #: Per-chunk outcome: ``ok`` / ``salvaged`` / ``lost``.
    chunk_outcomes: list[str] = field(default_factory=list)
    #: Per-chunk supervision detail (retries, degradation rung, wall
    #: time) — parallel to ``chunk_outcomes``.
    chunk_details: list[ChunkOutcome] = field(default_factory=list)
    #: Compressed regions lost to corruption (recover mode; all members).
    holes: list[PugzHole] = field(default_factory=list)
    #: Output positions rendered as ``?`` because their context fell in
    #: a hole (recover mode; all members).
    unresolved_markers: int = 0
    #: Trailer verification failures recorded instead of raised
    #: (recover mode with ``verify=True``).
    verify_failures: list[str] = field(default_factory=list)
    #: Byte offset of ignored trailing garbage after the last member.
    trailing_garbage_offset: int | None = None
    sync_seconds: float = 0.0
    pass1_seconds: float = 0.0
    resolve_seconds: float = 0.0
    pass2_seconds: float = 0.0
    output_size: int = 0
    members: int = 0
    #: Bit offset just past the last payload decoded (past its BFINAL
    #: block when ``final_seen``).
    end_bit: int = 0
    #: Whether the last payload's decode reached its BFINAL block.
    final_seen: bool = False
    #: Stripes decoded (all members); a whole-file call is one per member.
    stripes: int = 0
    #: Most pass-1 symbols one stripe held at once — the resident
    #: memory a striped run bounds.
    peak_stripe_symbols: int = 0

    @property
    def total_seconds(self) -> float:
        return (
            self.sync_seconds
            + self.pass1_seconds
            + self.resolve_seconds
            + self.pass2_seconds
        )

    @property
    def is_complete(self) -> bool:
        """True when nothing was lost: no holes, no placeholder bytes,
        no recorded verification failure, no ignored trailing garbage."""
        return (
            not self.holes
            and not self.unresolved_markers
            and not self.verify_failures
            and self.trailing_garbage_offset is None
        )


@dataclass
class _Segment:
    """A contiguous marker-domain piece of pass-1 output.

    A clean chunk is one chained segment; a corrupted chunk salvages
    into several, with ``chained=False`` on each piece whose 32 KiB
    context fell inside a hole (its markers can never be resolved).
    """

    chunk_index: int
    symbols: np.ndarray
    window: np.ndarray
    end_bit: int
    final_seen: bool
    chained: bool


#: Block table of a chunk whose block boundaries are unknown.
_NO_BLOCKS = np.zeros((0, 3), dtype=np.int64)
#: Piece table of a chunk whose blocks are unknown or uncaptured.
_NO_PIECES = (np.zeros((0, 4), dtype=np.int64), np.zeros((0, WINDOW_SIZE // 8), dtype=np.uint8))


def _block_table(blocks) -> np.ndarray:
    """``(start_bit, out_start, out_end)`` of each block as one int64
    array — a few rows per MiB that pickle as one buffer, not objects."""
    if not blocks:
        return _NO_BLOCKS
    return np.array(
        [(b.start_bit, b.out_start, b.out_end) for b in blocks], dtype=np.int64
    )


def _pass1_chunk(
    args,
) -> tuple[int, np.ndarray, np.ndarray, int, bool, np.ndarray, tuple | None]:
    """First-pass worker: decode one chunk into the marker domain.

    Module-level so :class:`ProcessExecutor` can pickle it.  ``args``
    is ``(data, start_bit, stop_bit, index, budget, kernel,
    reach_span)``.  Returns ``(index, symbols, final_window,
    end_bit, final_seen, blocks, pieces)``, ``blocks`` being the chunk's
    :func:`_block_table` and ``pieces`` its
    :func:`~repro.deflate.inflate.piece_table` (``None`` without a
    ``reach_span``).  ``symbols`` comes back at
    its natural width (:func:`repro.core.marker.narrow`:
    ``uint8`` for a marker-free chunk, else ``uint16``), so the trip to
    the parent costs 1-2 bytes per output byte, not the decoder's 4.
    A failure is annotated with the chunk index before propagating, so
    captured outcomes name the chunk that died.
    """
    data, chunk_start, chunk_stop, index, budget, kernel, reach_span = args
    try:
        if index == 0 and chunk_stop is None:
            # Sole chunk with a fully known (empty) context: decode in the
            # byte domain, which is faster and yields a concrete window.
            result = inflate(
                data, start_bit=chunk_start, stop_at_final=True, budget=budget,
                kernel=kernel, reach_span=reach_span,
            )
            symbols = np.frombuffer(result.data, dtype=np.uint8)
            window = _seed_window(result.data)
        else:
            result = marker_inflate(
                data, start_bit=chunk_start, window=None, stop_bit=chunk_stop,
                budget=budget, kernel=kernel, reach_span=reach_span,
            )
            symbols = marker.narrow(result.symbols)
            window = result.window
        return (
            index,
            symbols,
            window,
            result.end_bit,
            result.final_seen,
            _block_table(result.blocks),
            None if reach_span is None else piece_table(result.blocks),
        )
    except ReproError as exc:
        annotate(exc, chunk_index=index, stage="pass1", bit_offset=chunk_start)
        raise


def _decode_chunk_prefix(
    data, start_bit: BitOffset, stop_bit: BitOffset | None, budget=None,
    kernel=None,
):
    """Marker-decode block by block from ``start_bit`` until the first
    failure (or the chunk boundary / BFINAL block).

    Returns ``(symbols, window, end_bit, final_seen)`` where ``end_bit``
    is the boundary of the last *cleanly* decoded block — the precise
    start of the damage when decoding stopped early.  A ``budget``
    bounds the salvage the same way it bounds the clean path: each
    block is decoded under it, the cumulative symbol count is checked
    between blocks, and a budget trip simply ends the prefix (recover
    mode must stay recover mode, but resident memory stays capped).
    """
    window = None  # undetermined initial context
    parts: list[np.ndarray] = []
    total_symbols = 0
    sym_cap = budget.marker_symbol_cap() if budget is not None else None
    bit = start_bit
    final = False
    while stop_bit is None or bit < stop_bit:
        try:
            res = marker_inflate(
                data, start_bit=bit, window=window, max_blocks=1, stop_bit=stop_bit,
                budget=budget, kernel=kernel,
            )
        except ReproError:
            break
        if not res.blocks or res.end_bit <= bit:
            break
        parts.append(res.symbols)
        total_symbols += len(res.symbols)
        window = res.window
        bit = res.end_bit
        if res.final_seen:
            final = True
            break
        if sym_cap is not None and total_symbols >= sym_cap:
            # Per-block budgets cannot see across blocks; this check
            # makes the cap cumulative over the salvaged prefix.
            break
    symbols = (
        np.concatenate(parts) if parts else np.zeros(0, dtype=np.int32)
    )
    window_arr = marker.undetermined_window() if window is None else window
    return symbols, window_arr, bit, final


def _salvage_chunk(
    data,
    chunk: Chunk,
    region_end: int,
    confirm_blocks: int,
    max_resync_search_bits: int | None,
    err: BaseException,
    budget=None,
    kernel=None,
) -> tuple[list[_Segment], list[PugzHole]]:
    """Best-effort decode of a chunk that failed in pass 1.

    Alternates clean block-by-block decoding with block-start resync
    (the Section VI-A machinery) until the chunk's compressed region is
    exhausted, producing zero or more salvaged segments and one hole
    per undecodable span.  The final segment's window hands the correct
    (possibly partially unknown) context to the next chunk.  A
    ``budget`` caps the *cumulative* salvaged symbols: once spent, the
    rest of the region becomes one hole instead of more output.
    """
    segments: list[_Segment] = []
    holes: list[PugzHole] = []
    total_symbols = 0
    sym_cap = budget.marker_symbol_cap() if budget is not None else None
    bit = chunk.start_bit
    chained = True  # the first piece continues the previous chunk's context
    while bit < region_end:
        if sym_cap is not None and total_symbols >= sym_cap:
            holes.append(PugzHole(chunk.index, bit, region_end, str(err)))
            break
        symbols, window, end, final = _decode_chunk_prefix(
            data, bit, chunk.stop_bit, budget, kernel
        )
        total_symbols += len(symbols)
        if len(symbols):
            segments.append(
                _Segment(chunk.index, symbols, window, end, final, chained)
            )
        if final or end >= region_end:
            return segments, holes
        if chunk.stop_bit is not None and end >= chunk.stop_bit:
            return segments, holes
        # Damage at `end`: resync past it within this chunk's region.
        try:
            sync = find_block_start(
                data,
                start_bit=end + 1,
                end_bit=region_end,
                confirm_blocks=confirm_blocks,
                max_search_bits=max_resync_search_bits,
            )
        except ReproError:
            holes.append(PugzHole(chunk.index, end, region_end, str(err)))
            break
        holes.append(PugzHole(chunk.index, end, sync.bit_offset, str(err)))
        bit = sync.bit_offset
        chained = False  # context before the resync point is gone
    # The region ended inside a hole: the next chunk's context is unknown.
    segments.append(
        _Segment(
            chunk.index,
            np.zeros(0, dtype=np.int32),
            marker.undetermined_window(),
            region_end,
            False,
            False,
        )
    )
    return segments, holes


def _zlib_fallback(data, start_byte: int, budget=None):
    """Reference-decoder rung of the degradation ladder.

    Decode the whole raw DEFLATE stream at ``start_byte`` with zlib.
    Only chunk 0 can use this: it is the only chunk whose context is
    fully known and whose start is byte-aligned, which is all zlib can
    consume.  Useful when *our* decoder rejects a stream that is in
    fact valid (a reproduction bug or unsupported construct) — zlib's
    verdict is the ground truth the test suite pins everything to.

    Returns ``(bytes, end_bit)`` on success, ``None`` when zlib also
    rejects the stream (real corruption), finds it truncated, or the
    output would exceed ``budget`` (a zip bomb must not bypass the
    resource budget by riding the fallback rung).
    """
    buf = bytes(data[start_byte:])
    d = zlib.decompressobj(wbits=-zlib.MAX_WBITS)
    out = bytearray()
    cap = budget.output_cap() if budget is not None else None
    pending = buf
    try:
        # Bounded: every iteration either emits output (capped) or hits
        # a terminal branch below.
        while True:
            chunk = d.decompress(pending, 1 << 20)
            out += chunk
            if cap is not None and len(out) > cap:
                return None
            if d.eof:
                break
            pending = d.unconsumed_tail
            if not chunk and not pending:
                return None  # stream truncated: zlib wants more input
    except zlib.error:
        return None
    end_bit = 8 * (start_byte + len(buf) - len(d.unused_data))
    return bytes(out), end_bit


def pugz_decompress_payload(
    data,
    start_bit: int,
    end_bit: int,
    n_chunks: int = 4,
    executor: Executor | str = "serial",
    confirm_blocks: int = 5,
    report: PugzReport | None = None,
    *,
    on_error: str = "raise",
    max_resync_search_bits: int | None = None,
    placeholder: int = HOLE_BYTE,
    budget=None,
    supervision: SupervisionPolicy | None = None,
    kernel: str | None = None,
    reach_span: int | None = None,
) -> bytes:
    """Two-pass parallel decompression of one raw DEFLATE payload.

    ``data`` is the enclosing buffer; the payload's first block starts
    at ``start_bit`` and certainly ends by ``end_bit`` (an upper bound
    is fine — decoding stops at the BFINAL block).  ``executor``
    selects the backend (``serial`` / ``thread`` / ``process`` or an
    :class:`~repro.parallel.executor.Executor` instance); one built
    from a name is closed before the call returns.

    ``on_error="recover"`` salvages around corrupted regions instead of
    raising (see the module docstring); lost spans are recorded in the
    report's ``holes`` and unknown output positions render as
    ``placeholder``.

    ``budget`` (a :class:`~repro.robustness.limits.ResourceBudget`)
    bounds each chunk's resident output; ``supervision`` (a
    :class:`~repro.parallel.supervision.SupervisionPolicy`) adds
    per-task deadlines and bounded retries to pass 1.  A chunk
    whose *execution* failed terminally (deadline, dead worker) is
    re-decoded serially in-process — an exact, merely slower result —
    before the lossy salvage rungs are considered; the rung used is
    recorded per chunk in the report's ``chunk_details``.

    ``kernel`` selects the decode kernel by *name* (``"pure"`` /
    ``"numpy"``; ``None`` = environment/auto, see
    :mod:`repro.perf.kernels`) in every rung of pass 1 — it rides
    the job tuples into workers, so it must stay a picklable string for
    the process executor.  Kernels are output-identical; this only
    moves the speed/robustness trade-off.

    ``reach_span`` has pass 1 record each block's pieces and their
    window reach, cutting blocks longer than it at token starts
    (:attr:`PugzReport.chunk_pieces`), for an index build with that
    span; a plain decompression leaves it off and does no work for it.

    Every chunk runs as one stripe of the driver that
    :func:`repro.core.windowed.iter_pugz` streams a stripe at a time.
    """
    if on_error not in ("raise", "recover"):
        raise ValueError(f"on_error must be 'raise' or 'recover', got {on_error!r}")
    if report is None:
        report = PugzReport(n_chunks_requested=n_chunks)
    with owned_executor(executor, n_chunks) as ex:
        pieces = _iter_payload(
            data, start_bit, end_bit, n_chunks, ex, None, report,
            confirm_blocks=confirm_blocks, on_error=on_error,
            max_resync_search_bits=max_resync_search_bits, placeholder=placeholder,
            budget=budget, supervision=supervision, kernel=kernel,
            reach_span=reach_span,
        )
        return b"".join(pieces)


def _iter_payload(
    data,
    start_bit: int,
    end_bit: int,
    n_chunks: int,
    ex: Executor,
    stripe_chunks: int | None,
    report: PugzReport,
    *,
    confirm_blocks: int = 5,
    on_error: str = "raise",
    max_resync_search_bits: int | None = None,
    placeholder: int = HOLE_BYTE,
    budget=None,
    supervision: SupervisionPolicy | None = None,
    kernel: str | None = None,
    reach_span: int | None = None,
):
    """Yield one payload's output chunk by chunk, running both passes
    over ``stripe_chunks`` chunks at a time (``None``: all of them).

    The chunks are planned once.  Three things cross a stripe seam: the
    resolved 32 KiB context, the previous chunk's end bit (so a false
    planned start is restarted, and a chunk the previous one ran past
    is dropped, at a seam as within a stripe) and the BFINAL stop.
    Only one stripe's pass-1 symbols are resident at a time.
    """
    if end_bit <= start_bit or start_bit >= 8 * len(data):
        raise GzipFormatError(
            f"empty DEFLATE payload region [{start_bit}, {end_bit})",
            bit_offset=start_bit,
            stage="plan",
        )

    t0 = time.perf_counter()
    chunks = plan_chunks(data, start_bit, end_bit, n_chunks, confirm_blocks=confirm_blocks)
    report.sync_seconds += time.perf_counter() - t0

    undetermined = marker.undetermined_window()
    hole_byte = placeholder if on_error == "recover" else None
    prev_end = None  # end bit of the previous chunk if it decoded cleanly
    context = None  # resolved 32 KiB before the next segment
    total_blocks = 0
    final_any = False
    step = stripe_chunks or len(chunks)
    for first in range(0, len(chunks), step):
        # ---- pass 1: parallel marker-domain decompression ---------------
        t0 = time.perf_counter()
        stripe = chunks[first : first + step]
        jobs = [
            (data, c.start_bit, c.stop_bit, c.index, budget, kernel, reach_span)
            for c in stripe
        ]
        outcomes = ex.map_outcomes(_pass1_chunk, jobs, supervision)

        per_chunk: list[tuple[list[_Segment], list[PugzHole], str]] = []
        details: list[ChunkOutcome] = []
        block_tables: list[np.ndarray] = []
        piece_tables: list[tuple[np.ndarray, np.ndarray]] = []
        kept: list[Chunk] = []
        for c, oc in zip(stripe, outcomes):
            value = oc.value if oc.ok else None
            err = None if oc.ok else oc.error
            degraded: str | None = None
            if prev_end is not None and prev_end != c.start_bit:
                # The previous chunk decoded cleanly across this chunk's
                # planned start, so that start was a false block start (a
                # fixed-Huffman header read mid-block can fall back into
                # step with the real symbols).  Decode the chunk again from
                # the true boundary, or drop it if the previous chunk
                # already ran past its whole region.
                if c.stop_bit is not None and prev_end >= c.stop_bit:
                    continue
                c = Chunk(c.index, prev_end, c.stop_bit)
                degraded = "restart"
                try:
                    value = _pass1_chunk(
                        (data, c.start_bit, c.stop_bit, c.index, budget, kernel, reach_span)
                    )
                    err = None
                except ReproError as exc:
                    value, err = None, exc
            kept.append(c)
            prev_end = None
            region_end = c.stop_bit if c.stop_bit is not None else end_bit
            if err is not None and is_execution_fault(err):
                # Ladder rung 2: the *execution* failed, not the data — a
                # serial in-process re-decode is exact, just slower, so it
                # applies in both error modes.
                try:
                    value = _pass1_chunk(
                        (data, c.start_bit, c.stop_bit, c.index, budget, kernel, reach_span)
                    )
                    degraded = "serial"
                    err = None
                except ReproError as exc:
                    err = exc
            if value is None:
                if on_error == "raise" or not isinstance(err, ReproError):
                    raise err
                if c.index == 0 and c.start_bit % 8 == 0:
                    # Ladder rung 3 (chunk 0 only — the one chunk with known
                    # context and byte alignment): ask the zlib reference
                    # decoder for the whole payload.  Success means the
                    # stream was valid all along and the output is exact.
                    fallback = _zlib_fallback(data, c.start_bit // 8, budget)
                    if fallback is not None:
                        fb_out, fb_end = fallback
                        symbols = np.frombuffer(fb_out, dtype=np.uint8)
                        value = (0, symbols, _seed_window(fb_out), fb_end, True, _NO_BLOCKS, None)
                        degraded = "zlib"
            if value is not None:
                index, symbols, window, seg_end, final_seen, blocks, chunk_pieces = value
                if not final_seen:
                    prev_end = seg_end
                total_blocks += len(blocks)
                block_tables.append(blocks)
                piece_tables.append(_NO_PIECES if chunk_pieces is None else chunk_pieces)
                per_chunk.append(
                    (
                        [_Segment(index, symbols, window, seg_end, final_seen, True)],
                        [],
                        "ok",
                    )
                )
                details.append(
                    ChunkOutcome(
                        c.index, "ok", oc.retries, degraded, oc.wall_time,
                        error=None if err is None else str(err),
                    )
                )
            else:
                # Ladder rung 4: block-by-block salvage with resync; whatever
                # stays undecodable becomes an explicit hole.
                segments, holes = _salvage_chunk(
                    data, c, region_end, confirm_blocks, max_resync_search_bits, err,
                    budget, kernel,
                )
                total_blocks += sum(1 for s in segments if len(s.symbols))
                status = "salvaged" if any(len(s.symbols) for s in segments) else "lost"
                per_chunk.append((segments, holes, status))
                block_tables.append(_NO_BLOCKS)
                piece_tables.append(_NO_PIECES)
                details.append(
                    ChunkOutcome(
                        c.index,
                        status,
                        oc.retries,
                        "salvage" if status == "salvaged" else "hole",
                        oc.wall_time,
                        error=str(err),
                    )
                )
                final_seen = any(s.final_seen for s in segments)
            if final_seen:
                # A BFINAL block marks the true stream end (the planner's
                # end_bit is only an upper bound): chunks planned past it
                # belong to whatever follows (e.g. the next member of a
                # multi-member file), here and in later stripes.
                final_any = True
                break

        segments = [s for segs, _, _ in per_chunk for s in segs]
        report.chunks.extend(kept)
        report.chunk_outcomes.extend(outcome for _, _, outcome in per_chunk)
        report.chunk_details.extend(details)
        report.chunk_blocks.extend(block_tables)
        if reach_span is not None:
            report.chunk_pieces.extend(piece_tables)
        for _, holes, _ in per_chunk:
            report.holes.extend(holes)
        report.pass1_seconds += time.perf_counter() - t0

        sizes = [sum(len(s.symbols) for s in segs) for segs, _, _ in per_chunk]
        report.chunk_output_sizes.extend(sizes)
        marker_counts = [
            sum(marker.count_markers(s.symbols) for s in segs) for segs, _, _ in per_chunk
        ]
        report.chunk_marker_counts.extend(marker_counts)
        report.stripes += 1
        report.peak_stripe_symbols = max(report.peak_stripe_symbols, sum(sizes))
        if segments:
            report.end_bit = segments[-1].end_bit
        if first == 0 and on_error == "raise" and marker_counts[0]:
            raise ReproError(
                "chunk 0 produced markers: stream references data before its start",
                chunk_index=0,
                stage="pass1",
            )

        # ---- pass 2a: sequential context resolution (cheap) --------------
        t0 = time.perf_counter()
        contexts: list[np.ndarray] = []
        for seg in segments:
            contexts.append(context if (seg.chained and context is not None) else undetermined)
            context = marker.resolve(seg.window, contexts[-1])
        report.resolve_seconds += time.perf_counter() - t0

        # ---- pass 2b: marker translation, in the calling process ---------
        # The parent already holds every symbol array; shipping them to a
        # pool and the bytes back costs several times the translation.
        t0 = time.perf_counter()
        translated = [
            translate_chunk_counted(seg.symbols, ctx, placeholder=hole_byte)
            for seg, ctx in zip(segments, contexts)
        ]
        report.unresolved_markers += sum(count for _, count in translated)
        report.output_size += sum(len(piece) for piece, _ in translated)
        report.pass2_seconds += time.perf_counter() - t0
        for piece, _ in translated:
            yield piece
        if final_any:
            break

    report.final_seen = final_any
    if total_blocks == 0 and not final_any:
        raise GzipFormatError(
            "no DEFLATE blocks decodable in payload",
            bit_offset=start_bit,
            stage="pass1",
        )


def pugz_decompress(
    gz_data: bytes,
    n_chunks: int = 4,
    executor: Executor | str = "serial",
    *,
    verify: bool = False,
    confirm_blocks: int = 5,
    return_report: bool = False,
    on_error: str = "raise",
    allow_trailing_garbage: bool = False,
    max_resync_search_bits: int | None = None,
    deadline_s: float | None = None,
    max_retries: int = 0,
    budget=None,
    supervision: SupervisionPolicy | None = None,
    kernel: str | None = None,
):
    """Parallel decompression of a gzip file (the paper's ``pugz``).

    Handles single- and multi-member files: a multi-member ("blocked")
    file is decompressed member-by-member, each member internally
    chunked — members are already independent decompression units.

    Parameters
    ----------
    gz_data:
        Complete gzip file contents.
    n_chunks:
        Number of parallel chunks ("threads" in the paper's terms).
    executor:
        ``serial`` / ``thread`` / ``process`` or an Executor instance.
        An executor built from a name is closed before the call
        returns; an instance stays open, so a
        :class:`~repro.parallel.executor.ProcessExecutor` passed to
        several calls keeps one pool across them.
    verify:
        Check each member's CRC32/ISIZE trailer against a CRC chained
        over the member's output in the calling process.
    return_report:
        Also return the :class:`PugzReport` instrumentation.
    on_error:
        ``"raise"`` (default) aborts on the first corrupted chunk;
        ``"recover"`` salvages everything decodable, records lost spans
        as :class:`PugzHole` entries, and downgrades verification
        failures to report entries.
    allow_trailing_garbage:
        Tolerate non-gzip bytes after the last member (common in
        real-world truncated downloads and tar-like concatenations):
        warn, record the offset in the report, and stop instead of
        raising.  Implied by ``on_error="recover"``.
    max_resync_search_bits:
        Bound on each recover-mode resync search (bits past the fault).
    deadline_s / max_retries:
        Supervision shorthand: bound the wait for each chunk's result
        and retry execution faults (hung/dead workers) that many times
        with seeded exponential backoff.  ``supervision`` accepts a
        full :class:`~repro.parallel.supervision.SupervisionPolicy`
        instead (mutually exclusive with the shorthand).
    budget:
        A :class:`~repro.robustness.limits.ResourceBudget` bounding
        each chunk's resident output (zip-bomb defense); exceeding it
        raises :class:`~repro.errors.ResourceLimitError`.
    kernel:
        Decode-kernel name (``"pure"`` / ``"numpy"``; ``None`` =
        environment/auto selection, see :mod:`repro.perf.kernels`).
        Applies to every chunk in pass 1 and to all recovery
        rungs; output is kernel-independent.
    """
    if on_error not in ("raise", "recover"):
        raise ValueError(f"on_error must be 'raise' or 'recover', got {on_error!r}")
    if supervision is not None and (deadline_s is not None or max_retries):
        raise ValueError(
            "pass either supervision= or the deadline_s/max_retries shorthand, not both"
        )
    if supervision is None and (deadline_s is not None or max_retries):
        supervision = SupervisionPolicy(deadline_s=deadline_s, max_retries=max_retries)
    report = PugzReport(n_chunks_requested=n_chunks)
    pieces = _iter_members(
        gz_data, n_chunks, executor, None, report,
        verify=verify, on_error=on_error, allow_trailing_garbage=allow_trailing_garbage,
        confirm_blocks=confirm_blocks, max_resync_search_bits=max_resync_search_bits,
        budget=budget, supervision=supervision, kernel=kernel,
    )
    out = b"".join(pieces)
    if return_report:
        return out, report
    return out


def _iter_members(
    gz_data: bytes,
    n_chunks: int,
    executor: Executor | str,
    stripe_chunks: int | None,
    report: PugzReport,
    *,
    verify: bool,
    on_error: str = "raise",
    allow_trailing_garbage: bool = False,
    **payload_kw,
):
    """Yield a gzip file's output member by member, over the member
    walk of :func:`~repro.deflate.gzipfmt.iter_members`: behind
    :func:`pugz_decompress` (``stripe_chunks=None``: each member is one
    :func:`pugz_decompress_payload` call) and the striped
    :func:`repro.core.windowed.iter_pugz`.

    Every trailer must be present.  With ``verify`` each member's CRC32
    and length are chained over its pieces as they are yielded and
    compared with the trailer; a mismatch raises
    :class:`GzipFormatError` (``stage="trailer"``), or is recorded in
    ``report.verify_failures`` in recover mode.  ``payload_kw`` is
    passed on to the payload decoder.
    """
    members = iter_members(
        gz_data, allow_trailing_garbage=allow_trailing_garbage or on_error == "recover"
    )
    n = len(gz_data)
    with owned_executor(executor, min(n_chunks, stripe_chunks or n_chunks)) as ex:
        for member in members:
            payload = (gz_data, member.payload_start_bit, 8 * (n - 8), n_chunks, ex)
            if stripe_chunks is None:
                pieces = [
                    pugz_decompress_payload(
                        *payload, report=report, on_error=on_error, **payload_kw
                    )
                ]
            else:
                pieces = _iter_payload(
                    *payload, stripe_chunks, report, on_error=on_error, **payload_kw
                )
            crc = size = 0
            for piece in pieces:
                if verify:
                    crc = crc32(piece, crc)
                size += len(piece)
                yield piece
            try:
                member.finish(report.end_bit, report.final_seen, crc if verify else None, size)
            except GzipFormatError as exc:
                if on_error != "recover":
                    raise
                report.verify_failures.append(f"member {report.members}: {exc}")
                if not member.member_end:
                    # No trailer: nothing after this member can be found.
                    report.members += 1
                    return
            report.members += 1
    if member.member_end < n:
        report.trailing_garbage_offset = member.member_end
