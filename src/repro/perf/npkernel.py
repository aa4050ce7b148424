"""Two-stage vectorized DEFLATE decode kernel (the ``numpy`` kernel).

Stage 1 — token decode.  A DEFLATE block cannot be decoded in parallel
naively because every Huffman code's length is only known once decoded.
The kernel exploits the *self-synchronizing* property of Huffman codes
(measured on the benchmark corpus: a decoder started at a wrong bit
offset re-joins the true symbol boundaries after ~10 symbols, p90 24):
it runs a *wavefront* of W speculative lanes over the block, lane ``k``
starting ``R`` bits **before** its assigned segment so it is already
synchronized when the segment begins.  Each lane performs the same
13-numpy-op step — two table gathers give the combined bit advance of
(litlen code + length extras + distance code + distance extras) — so
one numpy dispatch sequence advances all lanes one symbol.  A *stitch*
pass then walks the trust chain: lane ``k`` is trusted from the first
visited position that equals the predecessor's hand-off position; rare
anomalies (a lane that never synced, or froze on a speculative EOB)
are patched by a scalar walk over the same tables.  A final bulk pass
re-reads all trusted symbol positions at once and extracts columnar
``(offsets, values)`` token arrays plus each token's bit position.

Stage 2 — replay.  Tokens are replayed with vectorized gathers:
literal bytes are scattered in one shot; copy-matches are resolved by
the self-referential-copy fixpoint — a match can only reference bytes
produced by *earlier* tokens, so repeated "copy the already-resolved
sources" rounds converge, and per-byte pointer jumping (halving the
unresolved chain depth each round) bounds the worst case — RLE-style
overlapping matches are first folded with a modulo trick so a
length-258/distance-1 run costs one round, not 258.

Everything here raises :class:`Fallback` instead of guessing when the
stream is anomalous (invalid symbol, truncation, back-reference
underflow, runaway speculation): callers re-decode the affected block
with the pure kernel, which reproduces the exact structured error and
bit position of the reference implementation.  See
docs/PERFORMANCE.md "Two-stage kernels" for the measured behaviour.
"""

from __future__ import annotations

import numpy as np

from repro.deflate import constants as C
from repro.deflate.tokens import token_ends

__all__ = [
    "Fallback",
    "StreamKernel",
    "check_probe_rules",
    "replay_bytes",
    "replay_symbols",
]

I64 = np.int64
#: Speculation geometry (tuned on the 2 MB FASTQ-like bench corpus):
#: lanes own ``SEG_BITS``-bit segments and pre-roll ``PREROLL_BITS``
#: before them.  A generous pre-roll suppresses expensive scalar
#: patches (p90 sync distance is ~24 symbols ~ 200 bits).
SEG_BITS = 500
PREROLL_BITS = 500
_MAX_LANES = 1024
#: Extra wavefront iterations past the segment-size estimate.
_CAP_EXTRA = 64
#: Sentinel for invalid distance symbols: guaranteed to drive any
#: computed distance negative so the trusted-path check catches it.
_BAD_DIST = -(1 << 40)
#: Output tile size of the replay pointer jump (see
#: :func:`_replay_matches`): 2x the DEFLATE window, so a chain hop
#: from tile ``t`` lands in tile ``t-1`` or earlier — already final.
_JUMP_TILE = 1 << 16

_K4 = I64(4)
_K15 = I64(15)

# -- per-symbol litlen/dist constant tables (module-wide, tiny) ----------
_KIND = np.full(288, 3, I64)  # 0 literal / 1 match / 2 EOB / 3 invalid
_KIND[:256] = 0
_KIND[C.END_OF_BLOCK] = 2
_KIND[257:286] = 1
_LEX = np.zeros(288, I64)
_LBASE = np.zeros(288, I64)
_LEX[257:286] = C.LENGTH_EXTRA_BITS[:29]
_LBASE[257:286] = C.LENGTH_BASE[:29]
#: Per-symbol value column: literal byte, match length base, or the
#: negative sentinels (-1 EOB, -2 invalid) the trusted-path check keys on.
_LVAL = np.where(_KIND == 0, np.arange(288), _LBASE)
_LVAL = np.where(_KIND == 2, -1, _LVAL)
_LVAL = np.where(_KIND == 3, -2, _LVAL)
_LEXMASK = (I64(1) << _LEX) - 1
_DEX = np.zeros(32, I64)
_DBASE = np.full(32, _BAD_DIST, I64)
_DEX[:30] = C.DIST_EXTRA_BITS[:30]
_DBASE[:30] = C.DIST_BASE[:30]
_DEXMASK = (I64(1) << _DEX) - 1


class Fallback(Exception):
    """The vectorized kernel declines this block; redo it purely.

    Raised on any anomaly whose exact error semantics belong to the
    pure kernel (bad symbol, truncation, back-reference underflow) and
    on pathological speculation (runaway patch walks).  Deliberately
    *not* a :class:`~repro.errors.ReproError`: it never escapes the
    kernel boundary.
    """


def _build_bitrev() -> tuple[np.ndarray, ...]:
    """All bit-reversal permutations for 0..MAX_CODE_BITS-bit windows.

    Built eagerly at import (≈0.5 MB, a few ms) so worker processes and
    threads share immutable tables instead of racing a lazy cache.
    """
    perms = [np.zeros(1, I64)]
    for m in range(1, C.MAX_CODE_BITS + 1):
        x = np.arange(1 << m, dtype=I64)
        r = np.zeros(1 << m, I64)
        for i in range(m):
            r |= ((x >> I64(i)) & I64(1)) << I64(m - 1 - i)
        perms.append(r)
    return tuple(perms)


_BITREV: tuple[np.ndarray, ...] = _build_bitrev()


def _bitrev_perm(m: int) -> np.ndarray:
    """Permutation mapping LSB-first m-bit windows to MSB code order."""
    return _BITREV[m]


def _expand(decoder) -> tuple[np.ndarray, np.ndarray, int]:
    """Canonical-code expansion to full LSB-window tables.

    Stable-sorting symbols by code length yields canonical code order;
    in MSB-first code space each symbol then owns a *contiguous* run of
    ``2**(M - len)`` windows, so one ``np.repeat`` builds the MSB table
    and the cached bit-reversal permutation converts it to the LSB
    window order the bitstream indexes with.
    """
    M = decoder.max_bits
    lengths = np.asarray(decoder.lengths, I64)
    order = np.argsort(np.where(lengths == 0, 99, lengths), kind="stable")
    order = order[lengths[order] > 0]
    lens = lengths[order]
    counts = I64(1) << (M - lens)
    total = int(counts.sum())
    msb_sym = np.repeat(order, counts)
    msb_nb = np.repeat(lens, counts)
    if total < (1 << M):  # incomplete (degenerate distance) code
        pad = (1 << M) - total
        msb_sym = np.concatenate([msb_sym, np.full(pad, -1, I64)])
        msb_nb = np.concatenate([msb_nb, np.zeros(pad, I64)])
    perm = _bitrev_perm(M)
    return msb_sym[perm], msb_nb[perm], M


def _lit_luts(decoder) -> dict:
    """Window-indexed litlen tables, cached on the decoder."""
    luts = decoder.np_luts
    if luts is None:
        sym_t, nb_t, M = _expand(decoder)
        cs = np.clip(sym_t, 0, 287)
        valid = sym_t >= 0
        kind = np.where(valid, _KIND[cs], 3)
        lex = np.where(kind == 1, _LEX[cs], 0)
        luts = decoder.np_luts = {
            "M": M,
            "mask": I64((1 << M) - 1),
            # Wavefront advance contribution: code bits (+ length extra
            # bits for matches); 0 for EOB/invalid freezes the lane.
            "advb": np.where(kind == 0, nb_t, np.where(kind == 1, nb_t + lex, 0)),
            "flag": (kind == 1).astype(I64),
            "nb": nb_t,
            "val": np.where(valid, _LVAL[cs], -2),
            "exm": np.where(kind == 1, _LEXMASK[cs], 0),
            "fsh": {},  # match-flag shift tables, keyed by dist table M
        }
    return luts


_NULL_DIST = {
    "M": 0,
    "mask": I64(0),
    "cons2": np.zeros(2, I64),
    "nb": np.zeros(2, I64),
    "exm": np.zeros(2, I64),
    "base": np.full(2, _BAD_DIST, I64),
}


def _dist_luts(decoder) -> dict:
    """Window-indexed distance tables; a null table when absent.

    ``cons2`` concatenates a zero block with the per-window consumed
    bits so that indexing with ``window | (is_match << M)`` folds the
    "was this a match?" branch into the gather (literals consume no
    distance bits).
    """
    if decoder is None:
        return _NULL_DIST
    luts = decoder.np_luts
    if luts is None:
        sym_t, nb_t, M = _expand(decoder)
        cs = np.clip(sym_t, 0, 31)
        valid = (sym_t >= 0) & (sym_t < 30)
        cons = np.where(valid, nb_t + _DEX[cs], 0)
        luts = decoder.np_luts = {
            "M": M,
            "mask": I64((1 << M) - 1),
            "cons2": np.concatenate([np.zeros(1 << M, I64), cons]),
            "nb": nb_t,
            "exm": np.where(valid, _DEXMASK[cs], 0),
            "base": np.where(valid, _DBASE[cs], _BAD_DIST),
        }
    return luts


def _region_b16(data, lo16: int, nwin: int) -> np.ndarray:
    """Bit windows of ``data`` at 2-byte granularity from bit ``16 lo16``.

    ``b16[j]`` holds bits ``[16 (lo16 + j), 16 (lo16 + j) + 64)``
    LSB-first, so the window at region-relative bit ``p`` is
    ``b16[p >> 4] >> (p & 15)`` — at least 49 valid bits, which covers
    the worst-case 48-bit footprint of one full DEFLATE symbol
    (15+5 length + 15+13 distance bits).  Bytes past the end of
    ``data`` read as zero.  Built as one stride-2 unaligned
    little-endian uint64 view of the slice and one cast to int64 (the
    arithmetic right shifts downstream never reach the sign bit: all
    consumers mask below bit 49); the copy holds no reference to
    ``data``.
    """
    lo = 2 * lo16
    need = 2 * nwin + 6
    if lo + need > len(data):
        pad = np.zeros(need, np.uint8)
        tail = np.frombuffer(data, np.uint8)[lo : lo + need]
        pad[: len(tail)] = tail
        data, lo = pad, 0
    return np.ndarray((nwin,), "<u8", data, lo, (2,)).astype(I64)


def _wavefront(B16, h0, span, ll, dl, check_from):
    """Advance W speculative lanes from bit ``h0`` across ``span`` bits.

    Returns ``(V, targets)``: ``V[t, k]`` is lane ``k``'s bit position
    after ``t`` symbol steps.  Lane 0 starts exactly at ``h0`` (its
    whole path is trusted); lane ``k > 0`` starts ``PREROLL_BITS``
    before its segment so it has re-synchronized by the time the
    predecessor's hand-off position arrives.  A lane that decodes EOB
    or an invalid window advances by 0 — it freezes stably, which the
    stitch pass detects.  The every-4-steps exit test starts at step
    ``check_from`` (the caller's estimate of the steps a call needs):
    stepping past the exit only adds rows the stitch ignores.
    """
    W = max(1, min(_MAX_LANES, span // SEG_BITS))
    starts = h0 + SEG_BITS * np.arange(W, dtype=I64)
    targets = starts + SEG_BITS
    lane0 = starts - PREROLL_BITS
    np.maximum(lane0, h0, out=lane0)
    cap = (SEG_BITS + PREROLL_BITS) // 6 + 8 + _CAP_EXTRA
    P = np.empty((cap + 1, W), I64)
    P[0] = lane0
    p = P[0].copy()
    b = np.empty(W, I64)
    g = np.empty(W, I64)
    w = np.empty(W, I64)
    i1 = np.empty(W, I64)
    base = np.empty(W, I64)
    fsh = np.empty(W, I64)
    adv = np.empty(W, I64)
    LADVB = ll["advb"]
    fshl = ll["fsh"].get(dl["M"])
    if fshl is None:
        fshl = ll["fsh"][dl["M"]] = ll["flag"] << I64(dl["M"])
    DCONS2 = dl["cons2"]
    lmask = ll["mask"]
    dmask = dl["mask"]
    t = 0
    while t < cap:
        np.right_shift(p, _K4, out=b)
        B16.take(b, out=g, mode="clip")
        np.bitwise_and(p, _K15, out=i1)
        np.right_shift(g, i1, out=w)
        np.bitwise_and(w, lmask, out=i1)
        LADVB.take(i1, out=base, mode="clip")
        fshl.take(i1, out=fsh, mode="clip")
        np.right_shift(w, base, out=w)
        np.bitwise_and(w, dmask, out=i1)
        np.bitwise_or(i1, fsh, out=i1)
        DCONS2.take(i1, out=adv, mode="clip")
        np.add(adv, base, out=adv)
        np.add(p, adv, out=P[t + 1])
        p = P[t + 1]
        t += 1
        if t >= check_from and t % 4 == 0:
            if not np.logical_and(p < targets, adv > 0).any():
                break
    return P[: t + 1], targets


def _scalar_step(B16, pos, ll, dl, fshl):
    """One-symbol advance at ``pos`` using the window tables (patch path)."""
    w = int(B16[pos >> 4]) >> (pos & 15)
    i1 = w & int(ll["mask"])
    base = int(ll["advb"][i1])
    i2 = ((w >> base) & int(dl["mask"])) | int(fshl[i1])
    return base + int(dl["cons2"][i2])


def _runs(V, lo, hi, sync_idx, cross_idx):
    """Rows ``sync_idx[k] <= t < cross_idx[k]`` of lanes ``lo..hi-1``, lane by lane."""
    if hi - lo == 1:
        return V[sync_idx[lo] : cross_idx[lo], lo]
    rows = np.arange(V.shape[0])[:, None]
    msk = (rows >= sync_idx[None, lo:hi]) & (rows < cross_idx[None, lo:hi])
    return np.ascontiguousarray(V[:, lo:hi].T)[msk.T]


def _stitch(V, targets, h0, ll, dl, B16, nbits):
    """Walk the trust chain over the wavefront's visited positions.

    Returns ``(flat_positions, eob_seen, resume_pos)`` where
    ``flat_positions`` are the trusted symbol start bits in stream
    order.  Lane ``k``'s entry position is the predecessor's first
    visited position at/after segment start; the lane is trusted from
    the row where it visited exactly that position.  Each run of lanes
    trusted that way is extracted with one vectorized mask.  Anomalies
    drop to a scalar walk over the same tables from the trusted
    position: a lane that never recorded its entry is walked until the
    walk reaches a position the lane itself visited (trusted from that
    row on) or its segment ends; a trusted lane that froze (EOB /
    invalid) ends the block; a trusted straggler is walked on from its
    last visited row.  Every walk is bounded by a guard that falls
    back to the pure kernel rather than chase a runaway speculation.
    """
    T1, W = V.shape
    ar = np.arange(W)
    cross_idx = np.argmax(V >= targets[None, :], axis=0)
    any_crossed = V[cross_idx, ar] >= targets
    cross_idx = np.where(any_crossed, cross_idx, T1)
    cp = V[np.minimum(cross_idx, T1 - 1), ar]
    entry = np.empty(W, I64)
    entry[0] = h0
    entry[1:] = cp[:-1]
    sync_idx = np.argmax(V == entry[None, :], axis=0)
    found = V[sync_idx, ar] == entry
    found[0] = True
    ok = found & any_crossed
    fshl = ll["fsh"][dl["M"]]
    parts = []
    k = 0
    while True:
        rest = ok[k:]
        j = W if rest.all() else k + int(rest.argmin())
        if j > k:
            parts.append(_runs(V, k, j, sync_idx, cross_idx))
        if j == W:
            return _cat(parts), False, int(cp[W - 1])
        # Lane j is anomalous; its entry position is trusted.
        k = j
        vis = V[:, k]
        tgt = int(targets[k])
        pos = int(entry[k])
        row = int(sync_idx[k]) if found[k] else -1
        seen = None
        while True:
            if row >= 0:  # the lane is trusted from ``row`` on
                if any_crossed[k]:
                    parts.append(vis[row : cross_idx[k]])
                    e = int(cp[k])
                    break
                d = np.diff(vis[row:])
                if (d == 0).any():  # froze on EOB / invalid: block ends
                    fz = int((d == 0).argmax()) + row
                    parts.append(vis[row : fz + 1])  # include the frozen position
                    return np.concatenate(parts), True, -1
                # Straggler: walk on from its last visited row.
                parts.append(vis[row : T1 - 1])
                pos = int(vis[T1 - 1])
                seen = {}
            elif seen is None:
                # First visit of each position (a frozen lane repeats one).
                seen = dict(zip(reversed(vis.tolist()), range(T1 - 1, -1, -1)))
            patch = []
            row = -1
            guard = 0
            while pos < tgt:
                if guard > 4096 or pos > nbits + 48:
                    # Checked *before* indexing: on truncated streams a
                    # speculative entry position can already sit past the
                    # padded bit-window array.
                    raise Fallback("runaway patch walk")
                row = seen.get(pos, -1)
                if row >= 0:  # merged with the lane's own path
                    break
                adv = _scalar_step(B16, pos, ll, dl, fshl)
                patch.append(pos)
                if adv == 0:  # EOB or invalid window: block ends here
                    return np.concatenate(parts + [np.asarray(patch, I64)]), True, -1
                pos += adv
                guard += 1
            parts.append(np.asarray(patch, I64))
            if row < 0:
                e = pos
                break
        k += 1
        if k == W:
            return np.concatenate(parts), False, e
        if e != entry[k]:
            # Re-derive the next lane's trust from the corrected entry.
            entry[k] = e
            hit = np.flatnonzero(V[:, k] == e)
            found[k] = len(hit) > 0
            sync_idx[k] = hit[0] if len(hit) else 0
            ok[k] = found[k] and any_crossed[k]


def _bulk_tokens(fp, B16, ll, dl):
    """Extract all token fields at the trusted positions in one pass.

    Returns ``(off, val, nb, lval)``: ``off`` is the match distance (0
    for literals, negative for invalid distance symbols thanks to the
    :data:`_BAD_DIST` sentinel), ``val`` the literal byte or match
    length, ``nb`` the litlen code length (for the end-bit), ``lval``
    the raw value column whose negative sentinels flag EOB/invalid.
    """
    g = B16.take(fp >> _K4, mode="clip")
    w = g >> (fp & _K15)
    i1 = w & ll["mask"]
    nb = ll["nb"].take(i1, mode="clip")
    lv = ll["val"].take(i1, mode="clip")
    val = lv + ((w >> nb) & ll["exm"].take(i1, mode="clip"))
    f = ll["flag"].take(i1, mode="clip")
    w2 = w >> ll["advb"].take(i1, mode="clip")
    i2 = w2 & dl["mask"]
    dist = dl["base"].take(i2, mode="clip") + (
        (w2 >> dl["nb"].take(i2, mode="clip")) & dl["exm"].take(i2, mode="clip")
    )
    return dist * f, val, nb, lv


class StreamKernel:
    """Stage-1 driver for one compressed buffer.

    Holds the buffer and two per-stream estimates the wavefront adapts
    to: the block size in bits (the span of a call) and the steps a
    call takes (where its exit test starts).  Each wavefront call
    builds bit windows over only the bits it can read, so no window
    array outlives a call and none is shared between buffers.
    """

    __slots__ = ("data", "nbits", "est_bits", "est_steps")

    def __init__(self, data) -> None:
        self.data = data
        self.nbits = 8 * len(data)
        self.est_bits = 140_000.0
        self.est_steps = 0

    def decode_block(self, h_bit: int, litlen, dist, max_out: int | None = None):
        """Decode one fixed/dynamic block body starting at ``h_bit``.

        Returns ``(offs, vals, fp, end_bit)``: columnar token arrays
        (match distance / literal-or-length value), each token's bit
        position followed by the EOB code's, and the bit just past the
        EOB code.  Raises
        :class:`Fallback` whenever the pure kernel would raise — the
        caller re-decodes the block purely for the exact error.

        ``max_out`` bounds the block's *output* size: the kernel
        declines a block whose tokens expand past it, mid-block once a
        segment crosses it (instead of buffering a zip bomb's worth of
        token arrays), and the pure fallback then reproduces the exact
        resource-limit error, size-bound error or truncation.
        """
        ll = _lit_luts(litlen)
        dl = _dist_luts(dist)
        nbits = self.nbits
        est = self.est_bits
        pos = h_bit
        if max_out is not None and max_out >= (1 << 60):
            max_out = None
        out_est = 0
        offs_l: list[np.ndarray] = []
        vals_l: list[np.ndarray] = []
        fp_l: list[np.ndarray] = []
        while True:
            span = int(min(est * 1.25 + 2048, max(4096, nbits + 48 - pos)))
            # Positions are relative to ``base`` inside the call: the
            # windows cover ``pos`` through ``pos + span`` plus 128 bits
            # (entry positions overshoot a segment by <= 48 bits).
            base = pos & ~15
            rel = pos - base
            b16 = _region_b16(self.data, pos >> 4, ((rel + span + 128) >> 4) + 1)
            V, tgts = _wavefront(b16, rel, span, ll, dl, self.est_steps - 12)
            self.est_steps = len(V) - 1
            fp, eob, resume = _stitch(V, tgts, rel, ll, dl, b16, nbits - base)
            off, val, nb, lv = _bulk_tokens(fp, b16, ll, dl)
            fp = fp + base
            if eob:
                if not len(fp) or int(lv[-1]) != -1:
                    raise Fallback("froze without EOB")
                if (lv[:-1] < 0).any() or (off[:-1] < 0).any():
                    raise Fallback("bad symbol on trusted path")
                end_bit = int(fp[-1]) + int(nb[-1])
                if end_bit > nbits:
                    raise Fallback("EOB past end of input")
                if max_out is not None:
                    out_est += int(np.where(off[:-1] > 0, val[:-1], 1).sum())
                    if out_est > max_out:
                        raise Fallback("block output exceeds max_out")
                offs_l.append(off[:-1])
                vals_l.append(val[:-1])
                fp_l.append(fp)
                self.est_bits = 0.7 * self.est_bits + 0.3 * (end_bit - h_bit)
                return (
                    _cat(offs_l).astype(np.int32),
                    _cat(vals_l).astype(np.int32),
                    _cat(fp_l),
                    end_bit,
                )
            if (lv < 0).any() or (off < 0).any():
                raise Fallback("bad symbol on trusted path")
            offs_l.append(off)
            vals_l.append(val)
            fp_l.append(fp)
            if max_out is not None:
                out_est += int(np.where(off > 0, val, 1).sum())
                if out_est > max_out:
                    raise Fallback("block output exceeds max_out")
            resume += base
            if resume <= pos or resume > nbits + 48:
                raise Fallback("wavefront made no progress")
            pos = resume
            est = max(4096.0, est - (pos - h_bit))


def _cat(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def check_probe_rules(offs, vals, history: int) -> None:
    """The strict probe's content rules (Appendix X-A) on token arrays.

    ``offs``/``vals`` are the rest of one block, as
    :meth:`StreamKernel.decode_block` returns them, and ``history``
    bytes of output precede its first token here.  Literals must be
    ASCII text and each match distance must stay within the output
    before it plus the assumed 32 KiB context; the 4 MiB block bound is
    the ``max_out`` of the :meth:`~StreamKernel.decode_block` call.
    Raises :class:`Fallback` on any violation: the caller re-decodes
    purely for the exact error.
    """
    is_m = offs > 0
    sizes = np.where(is_m, vals, 1)
    ends = np.cumsum(sizes, dtype=I64)
    if not C.ASCII_MASK[vals[~is_m]].all():
        raise Fallback("non-ASCII literal")
    # Never fires on a decodable distance code (at most 32 KiB); kept
    # so the rules match the pure strict loop's one for one.
    if (offs[is_m] > (ends - sizes)[is_m] + (history + C.WINDOW_SIZE)).any():
        raise Fallback("match reaches past the assumed context")


# ---------------------------------------------------------------------------
# Stage 2: vectorized LZ77 replay
# ---------------------------------------------------------------------------


def _replay_matches(out, m_start, m_len, m_off):
    """Resolve all match bytes of ``out`` by the copy fixpoint.

    ``out[i]`` for a match byte must equal ``out[i - off]``; since a
    match only references *earlier* output, the dependency graph is
    acyclic.  Overlapping (RLE-style) matches are pre-folded: byte
    ``r`` of a match with ``off < len`` reads from
    ``start - off + (r mod off)``, collapsing the intra-match chain to
    depth 1.  Cross-match chains (matches copying earlier match
    output, linked-list fashion — DNA corpora reach depths in the
    thousands) are cut by pointer jumping: ``ref`` maps every output
    position to its source (identity for already-concrete positions),
    and re-scattering each round squares the map, halving every chain
    depth — convergence is when a gather returns the positions
    unchanged, i.e. all sources hit identity entries.  All position
    arrays are int32 (the caller bounds the output size), halving the
    memory traffic of the gather rounds.

    The jump runs over output *tiles* in order: once a tile's chains
    are resolved, its ``ref`` entries are final, so a later tile's
    chain terminates the moment it leaves the tile (DEFLATE distances
    are <= 32 KiB, so most hops land in the immediately preceding
    tile).  That turns one global O(log max-depth) squaring over all
    match bytes into per-tile squarings over cache-resident slices —
    measured 2x on the jump phase for deep DNA-style chains.
    """
    nmatch = len(m_len)
    nm = int(m_len.sum())
    if nm == 0:
        return
    rep = np.repeat(np.arange(nmatch, dtype=np.int32), m_len)
    delta = m_start - (np.cumsum(m_len, dtype=np.int32) - m_len)
    bdst = np.arange(nm, dtype=np.int32) + delta[rep]
    bsrc = bdst - m_off[rep]
    overlap = m_off < m_len
    if overlap.any():
        ob = overlap[rep]
        db = bdst[ob]
        ro = db - m_start[rep][ob]
        oo = m_off[rep][ob]
        bsrc[ob] = db - ro - oo + ro % oo
    ref = np.arange(len(out), dtype=np.int32)
    ref[bdst] = bsrc
    final = np.empty(nm, np.int32)
    lo = 0
    a0 = int(bdst[0])
    aend = int(bdst[-1]) + 1
    for a in range(a0 - a0 % _JUMP_TILE, aend, _JUMP_TILE):
        hi = int(np.searchsorted(bdst, a + _JUMP_TILE, "left"))
        if hi == lo:
            continue
        d = bdst[lo:hi]
        s = bsrc[lo:hi]
        for _ in range(64):
            nxt = ref.take(s)
            if np.array_equal(nxt, s):
                break
            ref[d] = nxt
            s = nxt
        else:
            raise Fallback("unresolvable copy chains")
        final[lo:hi] = s
        lo = hi
    out[bdst] = out.take(final)


def _replay(offs, vals, win, dtype, ends=None):
    """Shared replay core: seeded window ``win`` (array), token arrays
    and, if the caller has them, their :func:`~repro.deflate.tokens.token_ends`."""
    offs = np.ascontiguousarray(offs, np.int32)
    vals = np.ascontiguousarray(vals, np.int32)
    wlen = len(win)
    if len(offs) * C.MAX_MATCH + wlen >= (1 << 31):
        # A 2 GiB+ replay cannot use int32 positions; the pure kernel
        # streams such outputs instead of materializing them.
        raise Fallback("output too large for int32 replay")
    is_m = offs > 0
    if ends is None:
        ends = token_ends(offs, vals)
    total = int(ends[-1]) if len(ends) else 0
    out = np.empty(wlen + total, dtype)
    out[:wlen] = win
    if total == 0:
        return out
    lit = ~is_m
    out[(ends[lit] - 1) + wlen] = vals[lit]
    m_len = vals[is_m]
    if len(m_len):
        m_start = (ends[is_m] + np.int32(wlen)) - m_len
        m_off = offs[is_m]
        if (m_start < m_off).any():
            raise Fallback("back-reference before window start")
        _replay_matches(out, m_start, m_len, m_off)
    return out


def replay_bytes(offs, vals, window: bytes, ends=None) -> bytes:
    """Replay byte-domain tokens against up to 32 KiB of history."""
    win = np.frombuffer(window, np.uint8) if window else np.empty(0, np.uint8)
    out = _replay(offs, vals, win, np.uint8, ends)
    return out[len(win):].tobytes()


def replay_symbols(offs, vals, window_arr: np.ndarray, ends=None) -> np.ndarray:
    """Replay marker-domain tokens; symbols stay int32.

    ``window_arr`` is the int32 symbol window (markers included: a
    match copies whatever symbol sits in the window, concrete byte or
    ``MARKER_BASE + j`` placeholder alike — exactly Algorithm 2 run
    over the extended alphabet).  The result is the produced symbol
    array *excluding* the window prefix; it is never byte-cast here —
    resolution stays the job of :mod:`repro.core.translate`.
    """
    out = _replay(offs, vals, window_arr, np.int32, ends)
    return out[len(window_arr):]
