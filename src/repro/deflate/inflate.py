"""DEFLATE decompression (RFC 1951), byte domain.

This is the reproduction's ``gunzip``-role decoder: a complete inflate
supporting stored, fixed-Huffman and dynamic-Huffman blocks, decoding
from **any bit offset** (the capability block-start probing relies on),
with optional

* a pre-seeded 32 KiB window (decompression resuming at a block
  boundary with known context — the second phase of random access);
* token-stream capture (:mod:`repro.deflate.tokens`) for the paper's
  offset/length statistics;
* strict probe checks from Appendix X-A (ASCII-only output, plausible
  block sizes), used by :mod:`repro.core.sync`.

The marker-domain decoder in :mod:`repro.core.marker_inflate` shares the
block-header machinery exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.deflate import constants as C
from repro.deflate.bitio import BitReader
from repro.deflate.huffman import HuffmanDecoder, cached_decoder
from repro.deflate.tokens import TokenStream, window_reach
from repro.units import BitOffset, ByteOffset
from repro.errors import (
    AsciiCheckError,
    BackrefError,
    BitstreamError,
    BlockHeaderError,
    BlockSizeError,
    HuffmanError,
    ResourceLimitError,
)

# Sentinel cap for the fast loops' single-compare zip-bomb guard (the
# marker-domain decoder imports it too); kept local (mirroring repro.robustness.limits.UNLIMITED_CAP) because this
# module must not import the robustness package — repro.robustness
# transitively imports the decode pipeline, and a module-level import
# here would close that cycle.  The ``budget`` parameter is duck-typed
# for the same reason.
_UNLIMITED_CAP = 1 << 62

__all__ = [
    "BlockHeader",
    "BlockInfo",
    "InflateResult",
    "read_block_header",
    "inflate",
    "inflate_bytes",
]

# Fixed-code decoders are stateless; build them once.
_FIXED_LITLEN = HuffmanDecoder(C.fixed_litlen_lengths())
_FIXED_DIST = HuffmanDecoder(C.fixed_dist_lengths(), allow_incomplete=True)


@dataclass
class BlockHeader:
    """Decoded header of one DEFLATE block."""

    bfinal: bool
    btype: int
    #: Litlen decoder for compressed blocks, ``None`` for stored blocks.
    litlen: HuffmanDecoder | None = None
    #: Distance decoder; ``None`` when the block declares no distance
    #: codes (it must then contain no matches).
    dist: HuffmanDecoder | None = None
    #: For stored blocks: payload length in bytes.
    stored_len: int = 0


@dataclass
class BlockInfo:
    """Where a block sits in the compressed and decompressed streams."""

    start_bit: BitOffset
    end_bit: BitOffset
    out_start: ByteOffset
    out_end: ByteOffset
    btype: int
    bfinal: bool
    #: With ``capture_reach``: the window positions the block reads
    #: directly (:func:`repro.deflate.tokens.window_reach`); ``None``
    #: for a stored block, which reads none, or without a capture.
    reach: np.ndarray | None = None


@dataclass
class InflateResult:
    """Output of :func:`inflate`."""

    data: bytes
    end_bit: BitOffset
    final_seen: bool
    blocks: list[BlockInfo] = field(default_factory=list)
    tokens: TokenStream | None = None
    #: Strict (probing) mode only: the confirmation run reached the
    #: stream's BFINAL block and decoded it cleanly (content checks
    #: applied; only the minimum-size bound is waived for it) — the
    #: strongest confirmation available near the end of a stream.
    hit_final_probe: bool = False

    @property
    def window(self) -> bytes:
        """Last 32 KiB of output — the context for whatever follows."""
        return self.data[-C.WINDOW_SIZE:]


def _read_dynamic_tables(reader: BitReader, strict: bool) -> tuple[HuffmanDecoder, HuffmanDecoder | None]:
    """Decode an RFC 1951 dynamic block preamble into decoders."""
    hlit = reader.read(5) + 257
    hdist = reader.read(5) + 1
    hclen = reader.read(4) + 4
    if hlit > C.MAX_HLIT:
        raise BlockHeaderError(
            f"HLIT {hlit} exceeds {C.MAX_HLIT}",
            bit_offset=reader.tell_bits(), stage="header",
        )
    if hdist > C.MAX_HDIST:
        # Codes 30/31 can never appear in a valid stream; a header that
        # declares them is rejected (helps probing fail fast).
        raise BlockHeaderError(
            f"HDIST {hdist} exceeds {C.MAX_HDIST}",
            bit_offset=reader.tell_bits(), stage="header",
        )

    clen_lengths = [0] * 19
    for i in range(hclen):
        clen_lengths[C.CODELEN_ORDER[i]] = reader.read(3)
    clen_decoder = cached_decoder(clen_lengths)  # must be complete

    # Decode HLIT + HDIST code lengths as one run (repeats may cross
    # the litlen/dist boundary, per the RFC).
    total = hlit + hdist
    lengths = [0] * total
    i = 0
    prev = -1
    while i < total:
        sym = clen_decoder.decode(reader)
        if sym < 16:
            lengths[i] = sym
            prev = sym
            i += 1
        elif sym == C.CLEN_COPY_PREV:
            if prev < 0:
                raise BlockHeaderError(
                    "repeat code with no previous length",
                    bit_offset=reader.tell_bits(), stage="header",
                )
            count = 3 + reader.read(2)
            if i + count > total:
                raise BlockHeaderError(
                    "code length repeat overruns table",
                    bit_offset=reader.tell_bits(), stage="header",
                )
            for _ in range(count):
                lengths[i] = prev
                i += 1
        elif sym == C.CLEN_ZERO_SHORT:
            count = 3 + reader.read(3)
            if i + count > total:
                raise BlockHeaderError(
                    "zero-run overruns table",
                    bit_offset=reader.tell_bits(), stage="header",
                )
            i += count
            prev = 0
        else:  # CLEN_ZERO_LONG
            count = 11 + reader.read(7)
            if i + count > total:
                raise BlockHeaderError(
                    "zero-run overruns table",
                    bit_offset=reader.tell_bits(), stage="header",
                )
            i += count
            prev = 0

    litlen_lengths = lengths[:hlit]
    dist_lengths = lengths[hlit:]

    if litlen_lengths[C.END_OF_BLOCK] == 0:
        raise BlockHeaderError(
            "litlen code lacks end-of-block symbol",
            bit_offset=reader.tell_bits(), stage="header",
        )
    litlen = cached_decoder(litlen_lengths)  # complete required

    n_dist = sum(1 for l in dist_lengths if l)
    if n_dist == 0:
        dist = None
    else:
        # RFC permits an incomplete distance code only in the
        # one-symbol degenerate case.
        dist = cached_decoder(dist_lengths, allow_incomplete=(n_dist == 1))
    return litlen, dist


def read_block_header(reader: BitReader, strict: bool = False) -> BlockHeader:
    """Read one block header starting at the reader's current bit.

    In ``strict`` mode (block-start probing) a final block is rejected:
    the probe never targets the very last block of a stream, and real
    mid-file blocks always have BFINAL=0 (Appendix X-A).
    """
    bfinal = bool(reader.read(1))
    if strict and bfinal:
        raise BlockHeaderError(
            "probe rejects BFINAL=1", bit_offset=reader.tell_bits(), stage="header"
        )
    btype = reader.read(2)
    if btype == C.BTYPE_RESERVED:
        raise BlockHeaderError(
            "reserved BTYPE 3", bit_offset=reader.tell_bits(), stage="header"
        )

    if btype == C.BTYPE_STORED:
        reader.align_to_byte()
        if reader.bits_remaining() < 32:
            raise BitstreamError(
            "truncated stored-block header",
            bit_offset=reader.tell_bits(), stage="header",
        )
        length = reader.read(16)
        nlen = reader.read(16)
        if length ^ nlen != 0xFFFF:
            raise BlockHeaderError(
            "stored block LEN/NLEN mismatch",
            bit_offset=reader.tell_bits(), stage="header",
        )
        return BlockHeader(bfinal, btype, stored_len=length)

    if btype == C.BTYPE_FIXED:
        return BlockHeader(bfinal, btype, litlen=_FIXED_LITLEN, dist=_FIXED_DIST)

    litlen, dist = _read_dynamic_tables(reader, strict)
    return BlockHeader(bfinal, btype, litlen=litlen, dist=dist)


def inflate(
    data,
    start_bit: BitOffset = BitOffset(0),
    window: bytes = b"",
    strict: bool = False,
    capture_tokens: bool = False,
    max_blocks: int | None = None,
    max_output: int | None = None,
    stop_at_final: bool = True,
    budget=None,
    kernel=None,
    capture_reach: bool = False,
) -> InflateResult:
    """Decompress a raw DEFLATE stream.

    Parameters
    ----------
    data:
        Buffer holding the compressed stream.
    start_bit:
        Bit offset of the first block header.
    window:
        Up to 32 KiB of decompressed history preceding ``start_bit``
        (used when resuming mid-stream with known context).
    strict:
        Apply the Appendix X-A probe checks: reject BFINAL=1 headers,
        non-ASCII output bytes, back-references beyond the available
        history *plus* assumed context, and implausible block sizes.
    capture_tokens:
        Record the decoded LZ77 token stream in the result.
    capture_reach:
        Give each Huffman block's :class:`BlockInfo` its ``reach``: the
        window positions its tokens read directly, computed from the
        block's own tokens as it is decoded (the whole stream's tokens
        are never held).  Index builders use it to store only those
        bytes of a checkpoint's window.
    max_blocks / max_output:
        Stop after this many blocks / output bytes (both soft limits
        checked at block boundaries, except the strict 4 MiB in-block
        size guard).
    stop_at_final:
        Stop after a BFINAL=1 block (set ``False`` to keep decoding a
        concatenation of streams, which callers split themselves).
    budget:
        Optional :class:`repro.robustness.limits.ResourceBudget`
        (duck-typed to avoid an import cycle).  Unlike the *soft*
        ``max_output`` limit, exceeding the budget raises a structured
        :class:`~repro.errors.ResourceLimitError`: the per-block check
        bounds literal growth, and the fast loop refuses any match copy
        that would push output past ``budget.output_cap()`` *before*
        copying — so a zip bomb errors out with resident output still
        under the cap (worst-case overshoot is one literal-only block,
        itself bounded by 8x the compressed input).
    kernel:
        Decode-kernel selection (see :mod:`repro.perf.kernels`):
        ``None`` (argument > ``REPRO_KERNEL`` env > auto), a kernel
        name (``"pure"`` / ``"numpy"`` / ``"auto"``), or a resolved
        :class:`~repro.perf.kernels.KernelSpec`.  The kernel is a
        per-block strategy of this one block loop, which owns the stop
        conditions, budget checks and block table for both: a Huffman
        block goes to the vectorized kernel when it is selected, and
        any block the kernel declines is re-decoded by the pure symbol
        loop (:func:`_finish_block`), so outputs, errors, and bit
        positions are identical across kernels.  A strict (probe)
        decode runs each Huffman block's first KiB of output in the
        pure loop, which rejects a false candidate within a few
        symbols, and hands the rest of the block to the kernel.

    Returns
    -------
    InflateResult
        Decompressed bytes (excluding the seeded window), the bit
        position just past the last decoded block, and per-block info.
    """
    # Late import: repro.perf pulls in profiling helpers that import
    # this module back (cycle is only at import time, not at call time).
    from repro.perf.kernels import resolve_kernel

    vectorized = resolve_kernel(kernel).use_vectorized(len(data))
    kern = None  # built at the first block that reaches the kernel
    reader = BitReader(data, start_bit)
    tokens = TokenStream() if capture_tokens else None
    blocks: list[BlockInfo] = []
    final_seen = False
    hit_final_probe = False
    cap = budget.output_cap() if budget is not None else _UNLIMITED_CAP
    # Strict Huffman blocks pause past their first KiB for the kernel.
    pause_at = C.PROBE_MIN_BLOCK if strict and vectorized else None
    # Output lives as immutable per-block parts; each block decodes
    # after ``tail``, the last 32 KiB of window and output (DEFLATE
    # distances never reach further back).
    parts: list[bytes] = []
    tail = bytes(window[-C.WINDOW_SIZE:])
    produced = 0

    while True:
        if max_blocks is not None and len(blocks) >= max_blocks:
            break
        if max_output is not None and produced >= max_output:
            break
        if reader.bits_remaining() < 3:
            if strict:
                raise BitstreamError(
                    "ran out of input at block header",
                    bit_offset=reader.tell_bits(), stage="inflate",
                )
            break
        final_probe_block = bool(strict and blocks and reader.peek(1) == 1)
        # The candidate block itself must not be final (a probe never
        # targets the stream's last block), but running into the final
        # block *while confirming* is a natural success — provided the
        # final block itself decodes cleanly, which we verify below
        # (content checks still apply; only the BFINAL rejection and
        # the minimum-size bound are waived for it).

        block_start_bit = reader.tell_bits()
        header = read_block_header(reader, strict=strict and not final_probe_block)
        reach = None

        if header.btype == C.BTYPE_STORED:
            block_out = reader.read_bytes(header.stored_len)
            if strict and not all(C.ASCII_MASK[b] for b in block_out):
                raise AsciiCheckError(
                    "stored block contains non-ASCII byte",
                    bit_offset=reader.tell_bits(), stage="inflate",
                )
            if tokens is not None and block_out:
                tokens.add_columnar(
                    np.zeros(len(block_out), np.int32),
                    np.frombuffer(block_out, np.uint8).astype(np.int32),
                )
        else:
            body = bytearray(tail)  # lint: allow-unbudgeted-alloc(tail is trimmed to the 32 KiB window every block)
            base = len(body)
            # A match may not grow a non-strict block past the budget,
            # nor a strict one past the 4 MiB probe bound.
            hard_cap = base + (C.PROBE_MAX_BLOCK if strict else cap - produced)
            # A reach capture gives each block its own token stream.
            block_tokens = TokenStream() if capture_reach else tokens
            if strict and not _decode_huffman_block(
                reader, header, body, block_tokens, C.ASCII_MASK, C.LENGTH_BASE,
                C.LENGTH_EXTRA_BITS, C.DIST_BASE, C.DIST_EXTRA_BITS,
                strict=True, pause_at=pause_at,
            ):
                block_out = bytes(memoryview(body)[base:])  # lint: allow-unbudgeted-alloc(the strict loop bounds a block at 4 MiB)
            else:
                if vectorized and kern is None:
                    from repro.perf.npkernel import StreamKernel

                    kern = StreamKernel(data)
                block_out = _finish_block(
                    kern, reader, header, body, block_tokens, strict, hard_cap, base
                )
            if capture_reach:
                offs, vals = block_tokens.offsets(), block_tokens.values()
                reach = window_reach(offs, vals)
                if tokens is not None:
                    tokens.add_columnar(offs, vals)
        tail = (tail + block_out[-C.WINDOW_SIZE:])[-C.WINDOW_SIZE:]
        parts.append(block_out)
        out_start = produced
        produced += len(block_out)

        if budget is not None:
            budget.check_block(
                produced,
                reader.tell_bits() - start_bit,
                stage="inflate",
                bit_offset=block_start_bit,
            )
        if strict:
            size = len(block_out)
            # An empty stored block is a sync-flush marker (pigz emits one
            # per chunk): 32 bits of exact LEN=0/NLEN=0xFFFF structure, so
            # it cannot be a chance match and is exempt from the minimum.
            sync_flush = header.btype == C.BTYPE_STORED and header.stored_len == 0
            min_size = 0 if (final_probe_block or sync_flush) else C.PROBE_MIN_BLOCK
            if size < min_size or size > C.PROBE_MAX_BLOCK:
                raise BlockSizeError(
                    f"block size {size} outside [{min_size}, {C.PROBE_MAX_BLOCK}]",
                    bit_offset=block_start_bit, stage="inflate",
                )
        blocks.append(
            BlockInfo(
                start_bit=block_start_bit,
                end_bit=reader.tell_bits(),
                out_start=out_start,
                out_end=produced,
                btype=header.btype,
                bfinal=header.bfinal,
                reach=reach,
            )
        )
        if header.bfinal:
            final_seen = True
            if final_probe_block:
                hit_final_probe = True
            if stop_at_final:
                break

    return InflateResult(
        data=b"".join(parts),
        end_bit=reader.tell_bits(),
        final_seen=final_seen,
        blocks=blocks,
        tokens=tokens,
        hit_final_probe=hit_final_probe,
    )


def _finish_block(
    kern,
    reader: BitReader,
    header: BlockHeader,
    body: bytearray,
    tokens: TokenStream | None,
    strict: bool,
    hard_cap: int,
    block_start: int,
) -> bytes:
    """Decode the rest of a Huffman block, from the reader's bit, after
    ``body`` (the last 32 KiB of output, then the block's first bytes
    from ``block_start`` on); return the block's bytes.

    With a :class:`~repro.perf.npkernel.StreamKernel` the kernel decodes
    the rest of the block to token arrays, limited to ``hard_cap`` bytes
    of ``body``; a strict decode checks them with
    :func:`repro.perf.npkernel.check_probe_rules` and replays them under
    a ``?`` prefix, the placeholder the pure loop writes for references
    into the unknown context.  Without a kernel, on any kernel
    :class:`~repro.perf.npkernel.Fallback` and on any rule violation,
    the pure symbol loop decodes from the same bit instead, which
    yields the reference's exact error or bytes: nothing is committed
    before every check has passed.
    """
    if kern is not None:
        from repro.perf import npkernel

        try:
            offs, vals, _fp, end_bit = kern.decode_block(
                reader.tell_bits(), header.litlen, header.dist,
                max_out=hard_cap - len(body),
            )
            history = bytes(body[-C.WINDOW_SIZE:])
            if strict:
                npkernel.check_probe_rules(offs, vals, len(body))
                history = b"?" * (C.WINDOW_SIZE - len(history)) + history
            block_out = npkernel.replay_bytes(offs, vals, history)
        except npkernel.Fallback:
            pass
        else:
            reader.seek_bits(BitOffset(end_bit))
            if tokens is not None:
                tokens.add_columnar(offs, vals)
            return bytes(body[block_start:]) + block_out
    if strict or tokens is not None:
        _decode_huffman_block(
            reader, header, body, tokens, C.ASCII_MASK if strict else None,
            C.LENGTH_BASE, C.LENGTH_EXTRA_BITS, C.DIST_BASE, C.DIST_EXTRA_BITS,
            strict=strict, block_start=block_start,
        )
    else:
        _decode_huffman_block_fast(reader, header, body, hard_cap)
    return bytes(memoryview(body)[block_start:])  # lint: allow-unbudgeted-alloc(block growth is capped by hard_cap inside the block decoders)


def _decode_huffman_block(
    reader: BitReader,
    header: BlockHeader,
    out: bytearray,
    tokens: TokenStream | None,
    ascii_mask,
    lbase,
    lextra,
    dbase,
    dextra,
    strict: bool,
    block_start: int | None = None,
    pause_at: int | None = None,
) -> bool:
    """Decode the symbol stream of one fixed/dynamic block into ``out``.

    This is the hot loop of the whole library; it reaches into the
    reader's internals to avoid method-call overhead per symbol.

    Returns ``False`` at end-of-block.  A strict decode with
    ``pause_at`` returns ``True`` instead as soon as the block has
    produced more than ``pause_at`` bytes, with the reader at the next
    symbol; ``block_start`` (default: ``len(out)`` on entry) is where
    the block's output began, for a decode resumed mid-block.
    """
    litlen = header.litlen
    dist = header.dist
    lit_table = litlen.table
    lit_bits = litlen.max_bits
    dist_table = dist.table if dist is not None else None
    dist_bits = dist.max_bits if dist is not None else 0

    if block_start is None:
        block_start = len(out)
    # In strict probing mode the decoder assumes an (unknown) 32 KiB
    # context exists before the block, exactly like the paper's checks:
    # a back-reference is invalid only if it exceeds window + history.
    history_bonus = C.WINDOW_SIZE if strict else 0
    # One per-symbol size comparison serves both the 4 MiB probe bound
    # and the pause point below it.
    max_block = C.PROBE_MAX_BLOCK if pause_at is None else pause_at

    while True:
        # -- decode litlen symbol (inlined HuffmanDecoder.decode) --
        if reader._bitcount < lit_bits:
            reader._refill()
        nbits, sym = lit_table[reader._bitbuf & ((1 << lit_bits) - 1)]
        if nbits == 0:
            raise HuffmanError(
                "invalid litlen code", bit_offset=reader.tell_bits(), stage="inflate"
            )
        if nbits > reader._bitcount:
            raise BitstreamError(
                "litlen code past end of stream",
                bit_offset=reader.tell_bits(), stage="inflate",
            )
        reader._bitbuf >>= nbits
        reader._bitcount -= nbits

        if sym < 256:
            if ascii_mask is not None and not ascii_mask[sym]:
                raise AsciiCheckError(
                    f"non-ASCII literal {sym}",
                    bit_offset=reader.tell_bits(), stage="inflate",
                )
            out.append(sym)
            if tokens is not None:
                tokens.add_literal(sym)
            if strict and len(out) - block_start > max_block:
                if pause_at is not None:
                    return True
                raise BlockSizeError(
                "block exceeds 4 MiB probe limit",
                bit_offset=reader.tell_bits(), stage="inflate",
            )
            continue
        if sym == C.END_OF_BLOCK:
            return False

        # -- match length --
        if sym > C.MAX_USED_LITLEN:
            raise HuffmanError(
                f"invalid length symbol {sym}",
                bit_offset=reader.tell_bits(), stage="inflate",
            )
        idx = sym - 257
        extra = lextra[idx]
        length = lbase[idx] + (reader.read(extra) if extra else 0)

        # -- distance --
        if dist_table is None:
            raise BackrefError(
                "match in block that declared no distance codes",
                bit_offset=reader.tell_bits(), stage="inflate",
            )
        if reader._bitcount < dist_bits:
            reader._refill()
        nbits, dsym = dist_table[reader._bitbuf & ((1 << dist_bits) - 1)]
        if nbits == 0:
            raise HuffmanError(
                "invalid distance code", bit_offset=reader.tell_bits(), stage="inflate"
            )
        if nbits > reader._bitcount:
            raise BitstreamError(
                "distance code past end of stream",
                bit_offset=reader.tell_bits(), stage="inflate",
            )
        reader._bitbuf >>= nbits
        reader._bitcount -= nbits
        if dsym > C.MAX_USED_DIST:
            raise HuffmanError(
                f"invalid distance symbol {dsym}",
                bit_offset=reader.tell_bits(), stage="inflate",
            )
        dex = dextra[dsym]
        distance = dbase[dsym] + (reader.read(dex) if dex else 0)

        avail = len(out) + history_bonus
        if distance > avail:
            raise BackrefError(
                f"distance {distance} exceeds available history {avail}",
                bit_offset=reader.tell_bits(), stage="inflate",
            )
        if tokens is not None:
            tokens.add_match(distance, length)

        pos = len(out) - distance
        if pos >= 0:
            if distance >= length:
                out += out[pos : pos + length]
            else:
                pattern = bytes(out[pos:])  # lint: allow-unbudgeted-alloc(pattern length equals distance, capped at the 32 KiB window by the history check above)
                reps = -(-length // distance)
                out += (pattern * reps)[:length]
        else:
            # Strict mode only: the reference reaches into the unknown
            # pre-block context.  Emit placeholder bytes ('?') — the
            # probe only validates structure, not content.
            # The extra MAX_MATCH clamp is a no-op (length <= 258 per the
            # length-code table) stated where the interval engine can
            # prove the allocation bound.
            unknown = min(length, -pos, C.MAX_MATCH)
            out += b"?" * unknown
            remaining = length - unknown
            for _ in range(remaining):
                out.append(out[-distance])
        if strict and len(out) - block_start > max_block:
            if pause_at is not None:
                return True
            raise BlockSizeError(
                "block exceeds 4 MiB probe limit",
                bit_offset=reader.tell_bits(), stage="inflate",
            )


def _decode_huffman_block_fast(
    reader: BitReader,
    header: BlockHeader,
    out: bytearray,
    hard_cap: int = _UNLIMITED_CAP,
) -> None:
    """Fast-path symbol loop: non-strict decode without token capture.

    ``hard_cap`` is the absolute ``len(out)`` (window prefix included)
    that a match copy may not exceed — the in-loop half of the
    zip-bomb guard (see :func:`inflate`'s ``budget``).  It costs one
    int comparison per match; literal growth is left to the amortized
    block-boundary check, which bounds it at one block's worth.

    Semantics are identical to :func:`_decode_huffman_block` with
    ``strict=False``/``tokens=None`` (the differential fuzz suite pins
    this); the speed comes from

    * mirroring the reader's bit-buffer state into locals and writing it
      back only on exit (the documented ``_bitbuf``/``_bitcount``
      protocol of :mod:`repro.deflate.bitio`), so the per-symbol cost is
      pure local-variable arithmetic;
    * lazy bulk refills: the buffer is topped up (to >= 57 bits, 6-8
      bytes per ``int.from_bytes``) only when it cannot satisfy the
      next table lookup, so a refill happens once per ~5 symbols
      instead of once per bit-level read; the rare in-group underflows
      (extra bits / distance code crossing the low-water mark) refill
      in place and only then report truncation;
    * batched copy-match expansion: non-overlapping matches are one
      ``bytearray`` slice copy, overlapping ones one pattern-repeat
      slice; byte-wise copying never happens.
    """
    litlen = header.litlen
    dist = header.dist
    lit_table = litlen.table
    lit_bits = litlen.max_bits
    lit_mask = (1 << lit_bits) - 1
    dist_table = dist.table if dist is not None else None
    dist_bits = dist.max_bits if dist is not None else 0
    dist_mask = (1 << dist_bits) - 1
    lbase = C.LENGTH_BASE
    lextra = C.LENGTH_EXTRA_BITS
    dbase = C.DIST_BASE
    dextra = C.DIST_EXTRA_BITS
    end_of_block = C.END_OF_BLOCK
    max_litlen = C.MAX_USED_LITLEN
    max_dist = C.MAX_USED_DIST

    data = reader._data
    nbytes = reader._nbytes
    pos = reader._pos
    bitbuf = reader._bitbuf
    bitcount = reader._bitcount
    from_bytes = int.from_bytes
    out_append = out.append

    try:
        while True:
            if bitcount < lit_bits:
                take = (64 - bitcount) >> 3
                rest = nbytes - pos
                if take > rest:
                    take = rest
                if take > 0:
                    bitbuf |= from_bytes(data[pos : pos + take], "little") << bitcount
                    bitcount += take << 3
                    pos += take
                if bitcount < lit_bits:
                    # Input exhausted: only here can a code claim more
                    # bits than remain.  (The table is complete —
                    # construction rejects incomplete litlen codes — so
                    # every index is a valid code and the in-budget
                    # main path below needs no per-symbol validation.)
                    if lit_table[bitbuf & lit_mask][0] > bitcount:
                        reader._pos, reader._bitbuf, reader._bitcount = pos, bitbuf, bitcount
                        raise BitstreamError(
                            "litlen code past end of stream",
                            bit_offset=reader.tell_bits(), stage="inflate",
                        )

            nbits, sym = lit_table[bitbuf & lit_mask]
            bitbuf >>= nbits
            bitcount -= nbits

            if sym < 256:
                out_append(sym)
                continue
            if sym == end_of_block:
                return
            if sym > max_litlen:
                reader._pos, reader._bitbuf, reader._bitcount = pos, bitbuf, bitcount
                raise HuffmanError(
                    f"invalid length symbol {sym}",
                    bit_offset=reader.tell_bits(), stage="inflate",
                )

            # -- match length (extra bits read straight off the buffer) --
            idx = sym - 257
            extra = lextra[idx]
            if extra:
                if extra > bitcount:
                    take = min((64 - bitcount) >> 3, nbytes - pos)
                    if take > 0:
                        bitbuf |= from_bytes(data[pos : pos + take], "little") << bitcount
                        bitcount += take << 3
                        pos += take
                    if extra > bitcount:
                        reader._pos, reader._bitbuf, reader._bitcount = pos, bitbuf, bitcount
                        raise BitstreamError(
                            f"requested {extra} bits with only {bitcount} available",
                            bit_offset=reader.tell_bits(), stage="inflate",
                        )
                length = lbase[idx] + (bitbuf & ((1 << extra) - 1))
                bitbuf >>= extra
                bitcount -= extra
            else:
                length = lbase[idx]

            # -- distance --
            if dist_table is None:
                reader._pos, reader._bitbuf, reader._bitcount = pos, bitbuf, bitcount
                raise BackrefError(
                    "match in block that declared no distance codes",
                    bit_offset=reader.tell_bits(), stage="inflate",
                )
            if bitcount < dist_bits:
                take = min((64 - bitcount) >> 3, nbytes - pos)
                if take > 0:
                    bitbuf |= from_bytes(data[pos : pos + take], "little") << bitcount
                    bitcount += take << 3
                    pos += take
                if bitcount < dist_bits:
                    # Input exhausted mid-match (distance tables may be
                    # incomplete, so nbits==0 stays checked below).
                    if dist_table[bitbuf & dist_mask][0] > bitcount:
                        reader._pos, reader._bitbuf, reader._bitcount = pos, bitbuf, bitcount
                        raise BitstreamError(
                            "distance code past end of stream",
                            bit_offset=reader.tell_bits(), stage="inflate",
                        )
            nbits, dsym = dist_table[bitbuf & dist_mask]
            if nbits == 0:
                reader._pos, reader._bitbuf, reader._bitcount = pos, bitbuf, bitcount
                raise HuffmanError(
                    "invalid distance code",
                    bit_offset=reader.tell_bits(), stage="inflate",
                )
            bitbuf >>= nbits
            bitcount -= nbits
            if dsym > max_dist:
                reader._pos, reader._bitbuf, reader._bitcount = pos, bitbuf, bitcount
                raise HuffmanError(
                    f"invalid distance symbol {dsym}",
                    bit_offset=reader.tell_bits(), stage="inflate",
                )
            dex = dextra[dsym]
            if dex:
                if dex > bitcount:
                    take = min((64 - bitcount) >> 3, nbytes - pos)
                    if take > 0:
                        bitbuf |= from_bytes(data[pos : pos + take], "little") << bitcount
                        bitcount += take << 3
                        pos += take
                    if dex > bitcount:
                        reader._pos, reader._bitbuf, reader._bitcount = pos, bitbuf, bitcount
                        raise BitstreamError(
                            f"requested {dex} bits with only {bitcount} available",
                            bit_offset=reader.tell_bits(), stage="inflate",
                        )
                distance = dbase[dsym] + (bitbuf & ((1 << dex) - 1))
                bitbuf >>= dex
                bitcount -= dex
            else:
                distance = dbase[dsym]

            start = len(out) - distance
            if start < 0:
                reader._pos, reader._bitbuf, reader._bitcount = pos, bitbuf, bitcount
                raise BackrefError(
                    f"distance {distance} exceeds available history {len(out)}",
                    bit_offset=reader.tell_bits(), stage="inflate",
                )
            if len(out) + length > hard_cap:
                reader._pos, reader._bitbuf, reader._bitcount = pos, bitbuf, bitcount
                raise ResourceLimitError(
                    f"match copy would grow output to {len(out) + length} bytes, "
                    f"past the {hard_cap}-byte resource budget",
                    limit="output_bytes",
                    bit_offset=reader.tell_bits(), stage="inflate",
                )
            if distance >= length:
                out += out[start : start + length]
            else:
                pattern = bytes(out[start:])  # lint: allow-unbudgeted-alloc(pattern length equals distance <= 32 KiB; total growth capped by the hard_cap check above)
                reps = -(-length // distance)
                out += (pattern * reps)[:length]
    finally:
        reader._pos = pos
        reader._bitbuf = bitbuf
        reader._bitcount = bitcount


def inflate_bytes(data, start_bit: BitOffset = BitOffset(0), window: bytes = b"") -> bytes:
    """Convenience wrapper: decompress and return only the bytes."""
    return inflate(data, start_bit=start_bit, window=window).data
