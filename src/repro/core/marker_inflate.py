"""DEFLATE decompression over the marker alphabet.

This is Algorithm 2 of the paper run with the *undetermined context*
``wˆ = [U_0..U_32767]`` of Section VI-C: literals decode to concrete
bytes; matches copy symbols — possibly markers — from the window.  The
output is a stream over the extended alphabet of
:mod:`repro.core.marker`, in which every surviving marker records
exactly which initial-context position it came from.

Two consumption modes:

* **full output** (default): the whole symbol stream is returned as an
  ``int32`` array — used by the parallel decompressor's first pass and
  by the random-access analyses;
* **streaming** (``sink=...``): symbols are flushed to a callback in
  large chunks and only the 32 KiB window is retained — used for the
  Figure 2 scale experiments (tens of MB) where materialising the
  output would dominate memory.

The block-header machinery is shared with the byte-domain decoder
(:func:`repro.deflate.inflate.read_block_header`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import marker
from repro.deflate import constants as C
from repro.deflate.bitio import BitReader
from repro.deflate.inflate import (
    _UNLIMITED_CAP,
    BlockInfo,
    _block_pieces,
    _decode_huffman_block,
    read_block_header,
)
from repro.deflate.tokens import TokenStream, token_ends
from repro.errors import BitstreamError, HuffmanError, BackrefError, ResourceLimitError
from repro.units import BitOffset

__all__ = ["MarkerInflateResult", "marker_inflate"]


@dataclass
class MarkerInflateResult:
    """Output of :func:`marker_inflate`."""

    #: Full symbol stream (``None`` in streaming mode).
    symbols: np.ndarray | None
    #: Bit position just past the last decoded block.
    end_bit: BitOffset
    #: True if a BFINAL=1 block was decoded.
    final_seen: bool
    #: True if decoding stopped because of ``max_output``.
    truncated: bool
    #: Total symbols produced (counting flushed ones).
    total_output: int
    #: Final 32 KiB window (symbol domain) — ``w_{i+1}`` of the paper.
    window: np.ndarray
    blocks: list[BlockInfo] = field(default_factory=list)


def _seed_window(window) -> np.ndarray:
    """Build the initial 32 KiB ``int32`` symbol window from caller input.

    ``None`` -> fully undetermined; bytes/array shorter than 32 KiB are
    right-aligned (they are the *most recent* history) with markers
    filling the unknown older positions.
    """
    if window is None:
        return marker.undetermined_window()
    if isinstance(window, (bytes, bytearray, memoryview)):
        vals = np.frombuffer(bytes(window[-C.WINDOW_SIZE:]), np.uint8).astype(np.int32)
    else:
        vals = np.asarray(window, dtype=np.int64)[-C.WINDOW_SIZE:]
        if len(vals) and (vals.min() < 0 or vals.max() >= marker.NUM_SYMBOLS):
            raise ValueError("window symbol outside marker alphabet")
        vals = vals.astype(np.int32)
    missing = C.WINDOW_SIZE - len(vals)
    if missing:
        vals = np.concatenate([marker.undetermined_window()[:missing], vals])
    return vals


def marker_inflate(
    data,
    start_bit: BitOffset = BitOffset(0),
    window=None,
    *,
    sink=None,
    flush_symbols: int = 1 << 20,
    max_output: int | None = None,
    max_blocks: int | None = None,
    stop_bit: BitOffset | None = None,
    stop_at_final: bool = True,
    budget=None,
    kernel=None,
    reach_span: int | None = None,
) -> MarkerInflateResult:
    """Decompress a DEFLATE stream into the marker symbol domain.

    Parameters
    ----------
    data:
        Compressed buffer.
    start_bit:
        Bit offset of the first block header (e.g. from
        :func:`repro.core.sync.find_block_start`).
    window:
        Initial context; ``None`` means fully undetermined.
    sink:
        Streaming callback ``sink(symbols_list, start_position)``; when
        given, ``result.symbols`` is ``None``.
    flush_symbols:
        Streaming granularity.
    max_output:
        Stop (mid-block) once this many symbols were produced.
    max_blocks:
        Stop after this many complete blocks.
    stop_bit:
        Stop at the block boundary at/after this bit position — the
        first pass of the parallel decompressor stops where the next
        thread's chunk begins.
    stop_at_final:
        Stop after a BFINAL=1 block.
    budget:
        Optional :class:`repro.robustness.limits.ResourceBudget`
        (duck-typed).  Unlike the *soft* ``max_output`` truncation,
        exceeding the budget raises a structured
        :class:`~repro.errors.ResourceLimitError`: block boundaries
        check output size, expansion ratio and resident marker-buffer
        bytes, and the in-block match path refuses any copy that would
        push the symbol count past ``budget.marker_symbol_cap()``
        *before* copying (one int comparison per match).
    kernel:
        Decode-kernel selection (see :mod:`repro.perf.kernels`).  The
        kernel is a per-block strategy of this one block loop, which
        owns the stop conditions, budget checks, block table and sink
        flushes for both: with the vectorized kernel a compressed block
        runs Algorithm 2 as token decode plus an ``int32`` symbol
        replay, and any block it declines, or that crosses the soft or
        hard limit, is re-decoded by the pure symbol loop
        (:func:`_symbol_block`), so symbol streams, errors, and bit
        positions are kernel-independent.
    reach_span:
        Give each compressed block's :class:`BlockInfo` its ``pieces``
        and their ``reach``, the window positions each reads directly,
        cut as :func:`repro.deflate.inflate.inflate` cuts them, so that
        an index built from this pass enters blocks at the same tokens
        and stores only those window bytes.  ``None`` captures nothing.
    """
    from repro.perf.kernels import resolve_kernel

    vectorized = resolve_kernel(kernel).use_vectorized(len(data))
    kern = None  # built at the first block that reaches the kernel
    reader = BitReader(data, start_bit)
    win = _seed_window(window)
    blocks: list[BlockInfo] = []
    final_seen = False
    truncated = False
    sym_cap = budget.marker_symbol_cap() if budget is not None else _UNLIMITED_CAP
    # Output accumulates as immutable int32 blocks: all of them without
    # a sink, the ones not yet flushed with one.
    chunks: list[np.ndarray] = []
    produced = 0
    emitted = 0

    def _flush() -> None:
        nonlocal chunks, emitted
        if chunks:
            pending = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
            chunks = []
            sink(pending.tolist(), emitted)
            emitted += len(pending)

    while True:
        if max_blocks is not None and len(blocks) >= max_blocks:
            break
        if max_output is not None and produced >= max_output:
            truncated = True
            break
        if stop_bit is not None and reader.tell_bits() >= stop_bit:
            break
        if reader.bits_remaining() < 3:
            break

        block_start_bit = reader.tell_bits()
        header = read_block_header(reader)
        out_start = produced
        reach = pieces = None

        if header.btype == C.BTYPE_STORED:
            raw = reader.read_bytes(header.stored_len)
            block_sym = np.frombuffer(raw, np.uint8).astype(np.int32)
        else:
            if vectorized and kern is None:
                from repro.perf.npkernel import StreamKernel

                kern = StreamKernel(data)
            body_bit = reader.tell_bits()
            block_sym, truncated, toks = _symbol_block(
                kern, reader, header, win,
                soft_limit=None if max_output is None else max_output - out_start,
                hard_limit=sym_cap - out_start,
                reach_span=reach_span,
            )
            if toks is not None:
                pieces, reach = _block_pieces(
                    header, block_start_bit, body_bit, reader.tell_bits(), out_start,
                    *toks, reach_span,
                )

        chunks.append(block_sym)
        produced += len(block_sym)
        if len(block_sym) >= C.WINDOW_SIZE:
            win = block_sym[-C.WINDOW_SIZE:]
        else:
            win = np.concatenate([win, block_sym])[-C.WINDOW_SIZE:]

        if budget is not None:
            resident = C.WINDOW_SIZE + (produced - emitted if sink is not None else produced)
            budget.check_block(
                produced,
                reader.tell_bits() - start_bit,
                stage="marker_inflate",
                bit_offset=block_start_bit,
                marker_buffer_bytes=4 * resident,
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
                pieces=pieces,
            )
        )
        if sink is not None and produced - emitted >= flush_symbols:
            _flush()
        if truncated:
            break
        if header.bfinal:
            final_seen = True
            if stop_at_final:
                break

    if sink is not None:
        _flush()
        symbols = None
    elif chunks:
        symbols = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    else:
        symbols = np.empty(0, dtype=np.int32)
    return MarkerInflateResult(
        symbols=symbols,
        end_bit=reader.tell_bits(),
        final_seen=final_seen,
        truncated=truncated,
        total_output=produced,
        window=win,
        blocks=blocks,
    )


def _symbol_block(
    kern,
    reader: BitReader,
    header,
    win: np.ndarray,
    soft_limit: int | None,
    hard_limit: int,
    reach_span: int | None = None,
) -> tuple[np.ndarray, bool, tuple | None]:
    """Decode one compressed block after the symbol window ``win``.

    Returns the block's ``int32`` symbols, whether ``soft_limit``
    truncated it, and with a ``reach_span`` its token columns and
    from the kernel their :func:`~repro.deflate.tokens.token_ends` and
    bit positions (``None`` from the pure loop; no tokens at all for a
    truncated block).  With a
    :class:`~repro.perf.npkernel.StreamKernel` the block runs through
    the two-stage kernel: stage 1 token decode
    (identical to the byte domain — the bitstream does not change
    between domains), stage 2 an **int32** symbol replay seeded with
    the window, so markers survive match copies untouched.  Without a
    kernel, and whenever the kernel declines the block
    (:class:`~repro.perf.npkernel.Fallback`) or its output would reach
    ``soft_limit`` or pass ``hard_limit``, the pure loop
    :func:`_decode_block_symbols` decodes it from the same bit: it
    stops at the exact truncation token, or raises at the exact match
    copy that crosses the budget.

    The pure loop keeps no tokens, so a reach capture decodes the block
    a second time, after it succeeded, with the byte-domain token loop
    over a zero window: distances and lengths do not depend on the
    window's contents, so the columns equal the kernel's.
    """
    if kern is not None:
        from repro.perf import npkernel

        try:
            offs, vals, fp, end_bit = kern.decode_block(
                reader.tell_bits(), header.litlen, header.dist,
                max_out=hard_limit if soft_limit is None else min(hard_limit, soft_limit - 1),
            )
            ends = token_ends(offs, vals)
            block_sym = npkernel.replay_symbols(offs, vals, win, ends)
        except npkernel.Fallback:
            pass
        else:
            reader.seek_bits(BitOffset(end_bit))
            return block_sym, False, None if reach_span is None else (offs, vals, (ends, fp))
    body_bit = reader.tell_bits()
    local = win.tolist()
    truncated = _decode_block_symbols(
        reader, header, local,
        C.LENGTH_BASE, C.LENGTH_EXTRA_BITS, C.DIST_BASE, C.DIST_EXTRA_BITS,
        soft_limit=soft_limit, hard_limit=hard_limit,
    )
    block_sym = np.asarray(local[len(win):], dtype=np.int32)
    if reach_span is None or truncated:
        return block_sym, truncated, None
    tokens = TokenStream()
    _decode_huffman_block(
        BitReader(reader._data, body_bit), header, bytearray(C.WINDOW_SIZE), tokens, None,
        C.LENGTH_BASE, C.LENGTH_EXTRA_BITS, C.DIST_BASE, C.DIST_EXTRA_BITS, strict=False,
    )
    return block_sym, False, (tokens.offsets(), tokens.values(), None)


def _decode_block_symbols(
    reader: BitReader,
    header,
    out: list[int],
    lbase,
    lextra,
    dbase,
    dextra,
    soft_limit: int | None,
    hard_limit: int = _UNLIMITED_CAP,
) -> bool:
    """Decode one compressed block into the symbol list.

    Returns ``True`` if decoding stopped early because ``soft_limit``
    symbols were produced (the caller then reports truncation).
    ``hard_limit`` is the resource-budget symbol cap for this block
    (absolute symbols it may still produce): a match copy that would
    exceed it raises :class:`~repro.errors.ResourceLimitError` *before*
    copying, the in-block half of the zip-bomb guard.

    Hot path: the reader's bit-buffer state is mirrored into locals and
    written back on exit (the documented ``_bitbuf``/``_bitcount``
    protocol), with lazy bulk refills (top-up only when the buffer
    cannot satisfy the next table lookup or extra-bits read) and
    slice-batched match copies — the same structure as the byte-domain
    fast loop in :func:`repro.deflate.inflate._decode_huffman_block_fast`.
    """
    litlen = header.litlen
    dist = header.dist
    lit_table = litlen.table
    lit_bits = litlen.max_bits
    lit_mask = (1 << lit_bits) - 1
    dist_table = dist.table if dist is not None else None
    dist_bits = dist.max_bits if dist is not None else 0
    dist_mask = (1 << dist_bits) - 1
    end_of_block = C.END_OF_BLOCK
    max_litlen = C.MAX_USED_LITLEN
    max_dist = C.MAX_USED_DIST
    # A soft limit of None never triggers truncation: compare against an
    # unreachable int bound so the loop keeps one cheap comparison.
    limit = _UNLIMITED_CAP if soft_limit is None else soft_limit

    data = reader._data
    nbytes = reader._nbytes
    pos = reader._pos
    bitbuf = reader._bitbuf
    bitcount = reader._bitcount
    from_bytes = int.from_bytes
    out_append = out.append
    out_extend = out.extend

    produced = 0

    try:
        while True:
            if produced >= limit:
                return True

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
                    # bits than remain (litlen tables are complete, so
                    # every index is a valid code and the main path
                    # needs no per-symbol validation).
                    if lit_table[bitbuf & lit_mask][0] > bitcount:
                        reader._pos, reader._bitbuf, reader._bitcount = pos, bitbuf, bitcount
                        raise BitstreamError(
                            "litlen code past end of stream",
                            bit_offset=reader.tell_bits(), stage="marker_inflate",
                        )

            nbits, sym = lit_table[bitbuf & lit_mask]
            bitbuf >>= nbits
            bitcount -= nbits

            if sym < 256:
                out_append(sym)
                produced += 1
                continue
            if sym == end_of_block:
                return False
            if sym > max_litlen:
                reader._pos, reader._bitbuf, reader._bitcount = pos, bitbuf, bitcount
                raise HuffmanError(
                    f"invalid length symbol {sym}",
                    bit_offset=reader.tell_bits(), stage="marker_inflate",
                )

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
                            bit_offset=reader.tell_bits(), stage="marker_inflate",
                        )
                length = lbase[idx] + (bitbuf & ((1 << extra) - 1))
                bitbuf >>= extra
                bitcount -= extra
            else:
                length = lbase[idx]

            if dist_table is None:
                reader._pos, reader._bitbuf, reader._bitcount = pos, bitbuf, bitcount
                raise BackrefError(
                    "match in block that declared no distance codes",
                    bit_offset=reader.tell_bits(), stage="marker_inflate",
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
                            bit_offset=reader.tell_bits(), stage="marker_inflate",
                        )
            nbits, dsym = dist_table[bitbuf & dist_mask]
            if nbits == 0:
                reader._pos, reader._bitbuf, reader._bitcount = pos, bitbuf, bitcount
                raise HuffmanError(
                    "invalid distance code",
                    bit_offset=reader.tell_bits(), stage="marker_inflate",
                )
            bitbuf >>= nbits
            bitcount -= nbits
            if dsym > max_dist:
                reader._pos, reader._bitbuf, reader._bitcount = pos, bitbuf, bitcount
                raise HuffmanError(
                    f"invalid distance symbol {dsym}",
                    bit_offset=reader.tell_bits(), stage="marker_inflate",
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
                            bit_offset=reader.tell_bits(), stage="marker_inflate",
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
                    f"distance {distance} exceeds seeded window + history",
                    bit_offset=reader.tell_bits(), stage="marker_inflate",
                )
            if produced + length > hard_limit:
                reader._pos, reader._bitbuf, reader._bitcount = pos, bitbuf, bitcount
                raise ResourceLimitError(
                    f"match copy would grow marker output past the "
                    f"resource budget ({hard_limit} more symbols allowed)",
                    limit="marker_symbols",
                    bit_offset=reader.tell_bits(), stage="marker_inflate",
                )
            if distance >= length:
                out_extend(out[start : start + length])
            else:
                pattern = out[start:]
                reps = -(-length // distance)
                out_extend((pattern * reps)[:length])
            produced += length
    finally:
        reader._pos = pos
        reader._bitbuf = bitbuf
        reader._bitcount = bitcount
