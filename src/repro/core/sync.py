"""Detection of DEFLATE block start positions (Section VI-A).

DEFLATE blocks are neither indexed nor byte-aligned, so the only way to
find one is to *try every bit offset*: attempt to decode a block there
and fail fast on any inconsistency.  The checks are the stringent set
from Appendix X-A of the paper, implemented by the strict mode of
:func:`repro.deflate.inflate.inflate`:

1. BFINAL must be 0 (we never seek to the last block);
2. BTYPE must not be the reserved value 3;
3. a dynamic Huffman header must be internally valid (lengths neither
   over- nor under-subscribed, repeats in range, ...);
4. decompressed bytes must be valid ASCII text;
5. back-references must stay within the 32 KiB window plus history;
6. a decompressed block must be between 1 KiB and 4 MiB.

A candidate that decodes one block is *confirmed* by decoding
``confirm_blocks`` further blocks (the paper uses 5); a confirmation
failure backtracks to the bit after the candidate.

Most offsets never reach that strict decode: :func:`screen_candidates`
rejects them a window of bit offsets at a time in a few numpy passes
(the table-driven candidate screen of rapidgzip, Knespel et al.,
arXiv:2308.08955), dropping only offsets the strict probe would reject.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.deflate import constants as C
from repro.deflate.huffman import cached_decoder
from repro.deflate.inflate import inflate
from repro.errors import DeflateError, SyncError
from repro.units import BitOffset

__all__ = [
    "SyncResult",
    "find_block_start",
    "probe_block",
    "prescreen",
    "screen_candidates",
]


def prescreen(data: bytes, bit: BitOffset) -> bool:
    """Cheap header screen before the full strict decode of a candidate.

    Implements the paper's "fail early and as quickly as possible" with
    direct integer arithmetic (the Python analogue of pugz's branch
    hints): BFINAL must be 0; BTYPE must be valid; a stored block must
    satisfy LEN == ~NLEN; a dynamic block's code-length code must not
    be over- or under-subscribed.  Rejects ~88 % of random bit offsets
    in ~1 microsecond.  This is the one-offset reference for the header
    checks of :func:`screen_candidates`, which :func:`find_block_start`
    runs a window of offsets at a time.
    """
    byte = bit >> 3
    # 18 bytes cover BFINAL+BTYPE+HLIT/HDIST/HCLEN+19 x 3-bit lengths.
    window = int.from_bytes(data[byte : byte + 18], "little") >> (bit & 7)
    if window & 1:
        return False  # BFINAL=1
    btype = (window >> 1) & 3
    if btype == 3:
        return False  # reserved
    if btype == 0:
        # Stored: LEN/NLEN complement check at the next byte boundary.
        pos = ((bit + 3 + 7) >> 3)  # aligned byte after the 3 header bits
        if pos + 4 > len(data):
            return False
        length = data[pos] | (data[pos + 1] << 8)
        nlen = data[pos + 2] | (data[pos + 3] << 8)
        return (length ^ nlen) == 0xFFFF and length >= 1
    if btype == 1:
        return True  # fixed code: nothing cheap to check
    # Dynamic: validate the code-length code's Kraft sum.
    hdr = window >> 3
    hlit = hdr & 31
    hdist = (hdr >> 5) & 31
    if hlit > 29 or hdist > 29:
        return False
    hclen = ((hdr >> 10) & 15) + 4
    lengths_bits = hdr >> 14
    kraft = 0
    for i in range(hclen):
        l = (lengths_bits >> (3 * i)) & 7
        if l:
            kraft += 1 << (7 - l)
    # The code-length code must be exactly complete (zlib always emits
    # complete codes; the strict decoder rejects anything else).
    return kraft == 128


# -- vectorised candidate screen ---------------------------------------------

#: Fixed-Huffman symbols decoded per candidate.  A random offset passes
#: one symbol's strict checks with probability ~0.57, so after 32 the
#: false-candidate survival rate is ~1e-8.
_SCREEN_SYMBOLS = 32
#: Most bits one fixed-Huffman symbol can consume: a 9-bit length code
#: with 5 extra bits plus a 5-bit distance code with 13 extra bits.
_MAX_SYMBOL_BITS = 32
#: Bytes past a window's last offset that the screen may read.
_SCREEN_TAIL_BYTES = 16 + (_SCREEN_SYMBOLS * _MAX_SYMBOL_BITS) // 8
#: First and largest window of bit offsets screened at once: small
#: enough that a nearby block start is cheap, large enough that numpy's
#: per-call overhead vanishes on long searches.
_FIRST_WINDOW_BITS = 1 << 13
_MAX_WINDOW_BITS = 1 << 18

_FIXED_LITLEN = cached_decoder(C.fixed_litlen_lengths())
_FIXED_DIST = cached_decoder(C.fixed_dist_lengths())
#: Fixed-code lookup by the next 9 (litlen) / 5 (distance) stream bits.
_LIT_NBITS = np.array([n for n, _ in _FIXED_LITLEN.table], dtype=np.int64)
_LIT_SYM = np.array([s for _, s in _FIXED_LITLEN.table], dtype=np.int64)
_DIST_SYM = np.array([s for _, s in _FIXED_DIST.table], dtype=np.int64)
#: Literal/length symbols the strict probe accepts as a literal.
_LIT_ASCII = np.zeros(C.NUM_LITLEN_SYMBOLS, dtype=bool)
_LIT_ASCII[:256] = C.ASCII_MASK
_LEN_BASE = np.asarray(C.LENGTH_BASE, dtype=np.int64)
_LEN_EXTRA = np.asarray(C.LENGTH_EXTRA_BITS, dtype=np.int64)
_DIST_BASE = np.asarray(C.DIST_BASE, dtype=np.int64)
_DIST_EXTRA = np.asarray(C.DIST_EXTRA_BITS, dtype=np.int64)
#: Kraft contribution (out of 128) of a code-length-code length 0..7.
_KRAFT = np.array([0] + [1 << (7 - l) for l in range(1, 8)], dtype=np.int64)


class _BitWindow:
    """Random-access bit peeks into ``data[lo_byte : hi_byte]``.

    Bytes past the end of ``data`` read as zero, exactly as
    :func:`prescreen`'s ``int.from_bytes`` of a short slice does.
    """

    def __init__(self, data, lo_byte: int, hi_byte: int) -> None:
        n = hi_byte - lo_byte
        self.lo_bit = BitOffset(8 * lo_byte)
        self.buf = np.zeros(n + 7, dtype=np.int64)
        have = np.frombuffer(data, dtype=np.uint8)[lo_byte:hi_byte]
        self.buf[: len(have)] = have
        # words[i]: the 7 bytes from lo_byte + i, little-endian (56 bits,
        # so int64 never overflows).
        self.words = np.zeros(n, dtype=np.int64)
        for k in range(7):
            self.words |= self.buf[k : k + n] << (8 * k)

    def peek(self, bits: np.ndarray) -> np.ndarray:
        """At least 49 stream bits from each offset, LSB first."""
        rel = bits - self.lo_bit
        return self.words[rel >> 3] >> (rel & 7)

    def byte(self, pos: np.ndarray) -> np.ndarray:
        return self.buf[pos - (self.lo_bit >> 3)]


def _screen_fixed(win: _BitWindow, pos: np.ndarray, total_bits: int) -> np.ndarray:
    """Strict decode of the first symbols of fixed-Huffman candidates.

    ``pos`` holds the bit after each candidate's 3-bit header.  Returns
    a mask of the candidates that survive :data:`_SCREEN_SYMBOLS`
    symbols of the strict probe's rules: ASCII literals, no
    end-of-block before :data:`~repro.deflate.constants.PROBE_MIN_BLOCK`
    bytes, length symbols <= 285, distance symbols <= 29 and distances
    within the output plus the assumed 32 KiB context.  A candidate
    whose next symbol could reach past the end of the data, or whose
    block ends cleanly, stops being screened and survives.
    """
    alive = np.ones(len(pos), dtype=bool)
    idx = np.arange(len(pos))
    out = np.zeros(len(pos), dtype=np.int64)
    for _ in range(_SCREEN_SYMBOLS):
        inside = pos + _MAX_SYMBOL_BITS <= total_bits
        idx, pos, out = idx[inside], pos[inside], out[inside]
        if not len(idx):
            break
        v = win.peek(pos)
        code = v & 511
        nb = _LIT_NBITS[code]
        sym = _LIT_SYM[code]
        li = np.clip(sym - 257, 0, len(_LEN_BASE) - 1)
        lex = _LEN_EXTRA[li]
        length = _LEN_BASE[li] + ((v >> nb) & ((1 << lex) - 1))
        dsym = _DIST_SYM[(v >> (nb + lex)) & 31]
        di = np.minimum(dsym, C.MAX_USED_DIST)
        dex = _DIST_EXTRA[di]
        dist = _DIST_BASE[di] + ((v >> (nb + lex + 5)) & ((1 << dex) - 1))

        is_lit = sym < C.END_OF_BLOCK
        is_eob = sym == C.END_OF_BLOCK
        is_match = (sym > C.END_OF_BLOCK) & (sym <= C.MAX_USED_LITLEN)
        dead = (
            (is_lit & ~_LIT_ASCII[sym])
            | (is_eob & (out < C.PROBE_MIN_BLOCK))
            | (sym > C.MAX_USED_LITLEN)
            | (is_match & (dsym > C.MAX_USED_DIST))
            | (is_match & (dist > out + C.WINDOW_SIZE))
        )
        alive[idx[dead]] = False
        go = ~dead & ~is_eob
        idx, pos, out = idx[go], pos[go], out[go]
        is_match, nb = is_match[go], nb[go]
        pos = pos + np.where(is_match, nb + lex[go] + 5 + dex[go], nb)
        out = out + np.where(is_match, length[go], 1)
    return alive


def screen_candidates(data, start_bit: BitOffset, stop_bit: BitOffset) -> np.ndarray:
    """Bit offsets in ``[start_bit, stop_bit)`` worth a strict probe.

    One numpy pass over the whole window makes :func:`prescreen`'s
    decisions for every offset (BFINAL/BTYPE, stored LEN/NLEN, dynamic
    HLIT/HDIST ranges and the code-length Kraft sum); fixed-Huffman
    candidates additionally have their first symbols strictly decoded
    (:func:`_screen_fixed`).  An offset is dropped only if
    :func:`prescreen` rejects it or the strict probe would.  Returns
    the surviving offsets in ascending order (``int64``).
    """
    total_bits = 8 * len(data)
    stop_bit = BitOffset(min(stop_bit, total_bits))
    if stop_bit <= start_bit:
        return np.zeros(0, dtype=np.int64)
    win = _BitWindow(data, start_bit >> 3, ((stop_bit - 1) >> 3) + 1 + _SCREEN_TAIL_BYTES)
    bits = np.arange(start_bit, stop_bit, dtype=np.int64)
    head = win.peek(bits)
    btype = (head >> 1) & 3
    open_block = (head & 1) == 0
    keep = np.zeros(len(bits), dtype=bool)

    # Stored: LEN == ~NLEN, LEN >= 1, all four bytes inside the data.
    st = np.flatnonzero(open_block & (btype == C.BTYPE_STORED))
    pos = (bits[st] + 10) >> 3
    length = win.byte(pos) | (win.byte(pos + 1) << 8)
    nlen = win.byte(pos + 2) | (win.byte(pos + 3) << 8)
    keep[st] = (pos + 4 <= len(data)) & ((length ^ nlen) == 0xFFFF) & (length >= 1)

    # Dynamic: HLIT/HDIST in range and a complete code-length code.
    dy = np.flatnonzero(open_block & (btype == C.BTYPE_DYNAMIC))
    hdr = head[dy] >> 3
    hclen = ((hdr >> 10) & 15) + 4
    lens_lo = win.peek(bits[dy] + 17)  # code-length-code lengths 0..15
    lens_hi = win.peek(bits[dy] + 17 + 48)  # ... and 16..18
    kraft = np.zeros(len(dy), dtype=np.int64)
    for i in range(19):
        src = lens_lo if i < 16 else lens_hi
        kraft += np.where(i < hclen, _KRAFT[(src >> (3 * (i % 16))) & 7], 0)
    keep[dy] = ((hdr & 31) <= 29) & (((hdr >> 5) & 31) <= 29) & (kraft == 128)

    fx = np.flatnonzero(open_block & (btype == C.BTYPE_FIXED))
    keep[fx] = _screen_fixed(win, bits[fx] + 3, total_bits)
    return bits[keep]


@dataclass
class SyncResult:
    """A confirmed block start."""

    #: Absolute bit offset of the confirmed block header.
    bit_offset: BitOffset
    #: Bit offsets from ``start_bit`` to the winner, inclusive (every
    #: offset counts as tried, screened out or probed).
    candidates_tried: int
    #: Blocks decoded to confirm the winner.
    blocks_confirmed: int
    #: Wall-clock seconds spent searching.
    elapsed: float


def probe_block(data, bit_offset: BitOffset, confirm_blocks: int = 5) -> bool:
    """Check whether a DEFLATE block plausibly starts at ``bit_offset``.

    Decodes up to ``1 + confirm_blocks`` blocks in strict mode; any
    format violation means "no block here".
    """
    try:
        result = inflate(
            data,
            start_bit=bit_offset,
            strict=True,
            max_blocks=1 + confirm_blocks,
        )
    except DeflateError:
        return False
    return len(result.blocks) >= 1 + confirm_blocks


def find_block_start(
    data,
    start_bit: BitOffset = BitOffset(0),
    *,
    confirm_blocks: int = 5,
    max_search_bits: int | None = None,
    end_bit: BitOffset | None = None,
) -> SyncResult:
    """Find the first confirmed DEFLATE block start at/after ``start_bit``.

    Parameters
    ----------
    data:
        Buffer containing (at least) the compressed stream.
    start_bit:
        First candidate bit offset.
    confirm_blocks:
        Number of *additional* blocks that must decode after the
        candidate (the paper's implementation uses 5).
    max_search_bits:
        Give up after trying this many candidates.
    end_bit:
        Do not try candidates at or beyond this bit offset.

    Raises
    ------
    SyncError
        If the search region is exhausted without a confirmed block.
    """
    t0 = time.perf_counter()
    total_bits = 8 * len(data)
    limit = total_bits if end_bit is None else min(end_bit, total_bits)
    if max_search_bits is not None:
        limit = min(limit, start_bit + max_search_bits)

    lo = start_bit
    width = _FIRST_WINDOW_BITS
    while lo < limit:
        hi = BitOffset(min(limit, lo + width))
        for bit in screen_candidates(data, lo, hi).tolist():
            try:
                result = inflate(
                    data,
                    start_bit=bit,
                    strict=True,
                    max_blocks=1 + confirm_blocks,
                )
            except DeflateError:
                continue
            confirmed = (
                len(result.blocks) >= 1 + confirm_blocks
                # Near the end of the stream, running into the genuine
                # BFINAL block (or the end of data) while confirming is
                # the best possible confirmation.
                or (len(result.blocks) >= 1 and result.hit_final_probe)
                or (len(result.blocks) >= 1 and result.end_bit >= total_bits - 7)
            )
            if confirmed:
                return SyncResult(
                    bit_offset=BitOffset(bit),
                    candidates_tried=bit - start_bit + 1,
                    blocks_confirmed=len(result.blocks),
                    elapsed=time.perf_counter() - t0,
                )
        lo = hi
        width = min(2 * width, _MAX_WINDOW_BITS)

    raise SyncError(
        f"no confirmed block start in bits [{start_bit}, {limit})"
        f" after {max(0, limit - start_bit)} candidates",
        bit_offset=start_bit,
        stage="sync",
    )
