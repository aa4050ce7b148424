"""Unit tests of the two-stage vectorized decode kernel (PR 9).

The differential fuzz suite proves whole-stream equivalence; these
tests pin the pieces in isolation: the LZ77 replay (tiled pointer
jumping, overlap folding, window seeding, marker transparency), the
per-block token decoder's guard rails (``max_out``, int32 bounds), the
stitch's anomaly paths under forced speculation geometries, freshness
of the bit windows when a buffer is reused, and the kernel-selection
precedence of :mod:`repro.perf.kernels`.
"""

from __future__ import annotations

import functools
import gc
import importlib.util
import pathlib
import weakref
import zlib

import numpy as np
import pytest

from repro.core import marker
from repro.core.marker_inflate import marker_inflate
from repro.deflate.bitio import BitReader
from repro.deflate.huffman import canonical_codes
from repro.deflate.inflate import inflate, read_block_header
from repro.perf import npkernel
from repro.perf.kernels import (
    KernelSpec,
    MIN_AUTO_NUMPY_BYTES,
    resolve_kernel,
)
from repro.units import BitOffset

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _cols(*tokens):
    """(offset, value) pairs -> int32 column arrays."""
    offs = np.asarray([t[0] for t in tokens], dtype=np.int32)
    vals = np.asarray([t[1] for t in tokens], dtype=np.int32)
    return offs, vals


def _pure_replay(tokens, window=b""):
    out = bytearray(window)
    for off, val in tokens:
        if off == 0:
            out.append(val)
        else:
            for _ in range(val):
                out.append(out[-off])
    return bytes(out[len(window):])


# ---------------------------------------------------------------------------
# replay_bytes
# ---------------------------------------------------------------------------


def test_replay_literals_only():
    toks = [(0, b) for b in b"ACGTACGT"]
    assert npkernel.replay_bytes(*_cols(*toks), b"") == b"ACGTACGT"


def test_replay_empty():
    offs = np.empty(0, dtype=np.int32)
    assert npkernel.replay_bytes(offs, offs, b"") == b""


def test_replay_simple_match():
    toks = [(0, ord("A")), (0, ord("B")), (0, ord("C")), (3, 3)]
    assert npkernel.replay_bytes(*_cols(*toks), b"") == b"ABCABC"


def test_replay_overlapping_match_rle():
    # distance 1, length 7: classic RLE — the overlap mod-fold path.
    toks = [(0, ord("X")), (1, 7)]
    assert npkernel.replay_bytes(*_cols(*toks), b"") == b"X" * 8


def test_replay_overlap_distance_less_than_length():
    toks = [(0, ord("A")), (0, ord("B")), (0, ord("C")), (2, 9)]
    assert npkernel.replay_bytes(*_cols(*toks), b"") == _pure_replay(toks)


def test_replay_chained_matches():
    # Later matches copy from earlier matches' output: the pointer
    # chains the tiled jump must resolve transitively.
    toks = [(0, ord("A")), (0, ord("B")), (2, 2), (4, 4), (8, 8), (3, 5)]
    assert npkernel.replay_bytes(*_cols(*toks), b"") == _pure_replay(toks)


def test_replay_from_seeded_window():
    window = b"HELLOWORLD"
    toks = [(10, 5), (0, ord("!")), (6, 4)]
    assert npkernel.replay_bytes(*_cols(*toks), window) == _pure_replay(
        toks, window
    )


def test_replay_randomized_against_pure():
    rng = np.random.default_rng(0xD1FF)
    window = bytes(rng.integers(0, 256, 512, dtype=np.uint8))
    toks = []
    produced = len(window)
    for _ in range(2_000):
        if produced == 0 or rng.random() < 0.55:
            toks.append((0, int(rng.integers(0, 256))))
            produced += 1
        else:
            off = int(rng.integers(1, min(produced, 400) + 1))
            length = int(rng.integers(3, 259))
            toks.append((off, length))
            produced += length
    assert npkernel.replay_bytes(*_cols(*toks), window) == _pure_replay(
        toks, window
    )


def test_replay_backref_before_window_raises_fallback():
    toks = [(0, ord("A")), (5, 3)]  # distance 5 with 2 bytes of history
    with pytest.raises(npkernel.Fallback):
        npkernel.replay_bytes(*_cols(*toks), b"")


def test_replay_int32_bound_raises_fallback():
    # len(offs) * 258 + wlen must stay below 2**31; build a columnar
    # shape that trips the pre-check without allocating the output.
    n = (1 << 31) // 258 + 1
    offs = np.zeros(n, dtype=np.int32)
    with pytest.raises(npkernel.Fallback):
        npkernel.replay_bytes(offs, offs, b"")


# ---------------------------------------------------------------------------
# replay_symbols (marker domain)
# ---------------------------------------------------------------------------


def test_replay_symbols_markers_survive_copies():
    # A match that reaches into the undetermined window must copy the
    # marker symbols (values >= MARKER_BASE) through untouched.
    win = np.asarray(marker.undetermined_window(), dtype=np.int32)
    toks = [(3, 3), (0, ord("G")), (2, 2)]
    out = npkernel.replay_symbols(*_cols(*toks), win)
    expect = [
        int(win[-3]), int(win[-2]), int(win[-1]),
        ord("G"),
        int(win[-1]), ord("G"),
    ]
    assert out.dtype == np.int32
    assert out.tolist() == expect
    assert all(s >= marker.MARKER_BASE for s in expect[:3])


def test_replay_symbols_no_byte_narrowing():
    win = np.asarray(marker.undetermined_window(), dtype=np.int32)
    out = npkernel.replay_symbols(*_cols((1, 258)), win)
    assert out.dtype == np.int32
    assert (out == win[-1]).all()


# ---------------------------------------------------------------------------
# decode_block
# ---------------------------------------------------------------------------


def _first_block(payload):
    reader = BitReader(payload, BitOffset(0))
    header = read_block_header(reader)
    assert header.btype != 0
    return reader.tell_bits(), header


def test_decode_block_tokens_match_pure_capture():
    rng = np.random.default_rng(7)
    text = bytes(rng.choice(np.frombuffer(b"ACGT", np.uint8), 40_000))
    co = zlib.compressobj(6, zlib.DEFLATED, -15)
    payload = co.compress(text) + co.flush()

    h_bit, header = _first_block(payload)
    kern = npkernel.StreamKernel(payload)
    offs, vals, _fp, end_bit = kern.decode_block(h_bit, header.litlen, header.dist)

    ref = inflate(payload, capture_tokens=True, max_blocks=1, kernel="pure")
    assert np.array_equal(offs, ref.tokens.offsets())
    assert np.array_equal(vals, ref.tokens.values())
    assert end_bit == ref.blocks[0].end_bit
    assert offs.dtype == np.int32 and vals.dtype == np.int32


def test_decode_block_max_out_guard():
    rng = np.random.default_rng(8)
    text = bytes(rng.choice(np.frombuffer(b"ACGT", np.uint8), 200_000))
    co = zlib.compressobj(9, zlib.DEFLATED, -15)
    payload = co.compress(text) + co.flush()
    h_bit, header = _first_block(payload)
    kern = npkernel.StreamKernel(payload)
    with pytest.raises(npkernel.Fallback):
        kern.decode_block(h_bit, header.litlen, header.dist, max_out=100)


def test_decode_block_huge_max_out_disabled():
    rng = np.random.default_rng(9)
    text = bytes(rng.choice(np.frombuffer(b"ACGT", np.uint8), 20_000))
    co = zlib.compressobj(6, zlib.DEFLATED, -15)
    payload = co.compress(text) + co.flush()
    h_bit, header = _first_block(payload)
    kern = npkernel.StreamKernel(payload)
    offs, vals, _fp, _end = kern.decode_block(
        h_bit, header.litlen, header.dist, max_out=1 << 62
    )
    total = int(np.where(offs > 0, vals, 1).sum())
    assert total == 20_000


# ---------------------------------------------------------------------------
# reused buffers: the bit windows are read from the bytes as they are now
# ---------------------------------------------------------------------------


def _raw_deflate(data: bytes, level: int = 6, mem_level: int = 8, strategy: int = 0) -> bytes:
    co = zlib.compressobj(level, zlib.DEFLATED, -15, mem_level, strategy)
    return co.compress(data) + co.flush()


def _swap_one_literal(payload: bytes) -> bytes:
    """Replace one literal's code by a sibling code of equal length.

    The result is a valid stream of the same length whose output
    differs from the original in that literal (and in the bytes later
    matches copy from it).
    """
    h_bit, header = _first_block(payload)
    offs, vals, fp, _end = npkernel.StreamKernel(payload).decode_block(
        h_bit, header.litlen, header.dist
    )
    lengths = header.litlen.lengths
    codes = canonical_codes(lengths)
    lits = np.flatnonzero(offs == 0)
    for i in lits[len(lits) // 2 :]:
        sym = int(vals[i])
        sibs = [s for s in range(256) if s != sym and lengths[s] == lengths[sym]]
        if sibs:
            break
    else:  # pragma: no cover - every realistic literal code has a sibling
        raise AssertionError("no literal with a same-length sibling")
    n, code, pos = lengths[sym], codes[sibs[0]], int(fp[i])
    out = bytearray(payload)
    for j in range(n):  # RFC 1951 packs Huffman codes most significant bit first
        bit = (code >> (n - 1 - j)) & 1
        byte, shift = divmod(pos + j, 8)
        out[byte] = (out[byte] & ~(1 << shift)) | (bit << shift)
    return bytes(out)


def test_reused_buffer_sibling_code_decodes_fresh_bytes():
    rng = np.random.default_rng(21)
    text = bytes(rng.choice(np.frombuffer(b"ACGTN@+", np.uint8), 30_000))
    first = _raw_deflate(text)
    second = _swap_one_literal(first)
    assert len(second) == len(first) and second != first
    expect = inflate(second, kernel="pure").data
    assert expect != text

    buf = bytearray(first)
    assert inflate(buf, kernel="numpy").data == text
    buf[:] = second
    assert inflate(buf, kernel="numpy").data == expect


def test_reused_buffer_unrelated_stream_decodes_fresh_bytes():
    # Multi-block: windows left over from the first stream end a block
    # at the wrong bit, and the next header read fails on valid input.
    rng = np.random.default_rng(0)
    texts = [bytes(rng.choice(np.frombuffer(b"ACGT", np.uint8), 40_000)) for _ in "ab"]
    a, b = (_raw_deflate(t, mem_level=4) for t in texts)
    n = max(len(a), len(b))
    buf = bytearray(a.ljust(n, b"\0"))
    assert inflate(buf, kernel="numpy").data == texts[0]
    buf[:] = b.ljust(n, b"\0")
    assert inflate(buf, kernel="numpy").data == texts[1]


def test_no_reference_to_the_buffer_survives_a_decode():
    class Buf(bytearray):  # bytearray itself takes no weak references
        pass

    buf = Buf(_raw_deflate(b"ACGT" * 10_000))
    ref = weakref.ref(buf)
    assert inflate(buf, kernel="numpy").data == b"ACGT" * 10_000
    del buf
    gc.collect()
    assert ref() is None


# ---------------------------------------------------------------------------
# the stitch's anomaly paths, forced by the speculation geometry
# ---------------------------------------------------------------------------


def _lane_kinds(V, targets, fp, eob):
    """Classify lanes ``k >= 1`` of one wavefront call against the true path.

    ``fp`` are the call's trusted (true) symbol positions.  A lane's
    entry is the first true position at/after its predecessor's target.
    Returns the set of kinds seen: ``synced`` (visited its entry),
    ``merged`` (missed its entry but visited a later true position of its
    segment), ``unmerged`` (visited none), ``straggler`` (synced, never
    frozen, ended before its target).
    """
    cut = np.searchsorted(fp, targets)
    kinds = set()
    for k in range(1, V.shape[1]):
        seg = fp[cut[k - 1] : cut[k]]
        if not len(seg) or (eob and cut[k] == len(fp)):
            continue  # the block ended in or before this segment
        vis = V[:, k]
        hit = np.isin(seg, vis)
        if hit[0]:
            kinds.add("synced")
            if vis[-1] < targets[k] and (np.diff(vis) > 0).all():
                kinds.add("straggler")
        elif hit.any():
            kinds.add("merged")
        else:
            kinds.add("unmerged")
    return kinds


def _multiblock(text: bytes, **kw) -> bytes:
    payload = _raw_deflate(text, **kw)
    ref = inflate(payload, capture_tokens=True, kernel="pure")
    assert sum(b.btype == 2 for b in ref.blocks) >= 3
    return payload


def _spy_kernel(monkeypatch):
    """Record every wavefront call's lane kinds and count Fallbacks."""
    seen = {"kinds": set(), "fallbacks": 0}
    wavefront, stitch = npkernel._wavefront, npkernel._stitch
    decode = npkernel.StreamKernel.decode_block
    last = {}

    def spy_wavefront(*a):
        last["V"], last["targets"] = out = wavefront(*a)
        return out

    def spy_stitch(*a):
        out = stitch(*a)
        seen["kinds"] |= _lane_kinds(last["V"], last["targets"], out[0], out[1])
        return out

    def spy_decode(self, *a, **kw):
        try:
            return decode(self, *a, **kw)
        except npkernel.Fallback:
            seen["fallbacks"] += 1
            raise

    monkeypatch.setattr(npkernel, "_wavefront", spy_wavefront)
    monkeypatch.setattr(npkernel, "_stitch", spy_stitch)
    monkeypatch.setattr(npkernel.StreamKernel, "decode_block", spy_decode)
    return seen


def _assert_matches_pure(payload):
    ref = inflate(payload, capture_tokens=True, kernel="pure")
    got = inflate(payload, capture_tokens=True, kernel="numpy")
    assert np.array_equal(got.tokens.offsets(), ref.tokens.offsets())
    assert np.array_equal(got.tokens.values(), ref.tokens.values())
    assert [b.end_bit for b in got.blocks] == [b.end_bit for b in ref.blocks]
    assert got.data == ref.data


@functools.lru_cache(maxsize=1)
def _fastq_text() -> bytes:
    """Alternating 100-byte DNA and quality rows, no newlines."""
    rng = np.random.default_rng(31)
    dna = rng.choice(np.frombuffer(b"ACGT", np.uint8), 60_000)
    qual = rng.integers(33, 74, 60_000, dtype=np.uint8)
    return np.concatenate([dna.reshape(-1, 100), qual.reshape(-1, 100)], axis=1).tobytes()


@pytest.mark.parametrize(
    "seg, preroll, kinds",
    [
        (500, 0, {"merged"}),  # no pre-roll: lanes enter mid-code, merge later
        (64, 0, {"merged", "unmerged"}),  # tiny segments end before a merge
        (128, 64, {"synced", "merged"}),
    ],
)
def test_stitch_repairs_match_pure_capture(monkeypatch, seg, preroll, kinds):
    payload = _multiblock(_fastq_text(), mem_level=3)
    monkeypatch.setattr(npkernel, "SEG_BITS", seg)
    monkeypatch.setattr(npkernel, "PREROLL_BITS", preroll)
    seen = _spy_kernel(monkeypatch)
    _assert_matches_pure(payload)
    assert seen["fallbacks"] == 0
    assert kinds <= seen["kinds"], seen["kinds"]


def test_stitch_stragglers_match_pure_capture(monkeypatch):
    # Huffman-only coding of a skewed text gives ~1.5-bit symbols: a
    # lane syncs within its short pre-roll but needs more steps than the
    # wavefront's cap to cross its long segment, so trusted lanes
    # straggle and are walked on from their last visited row.
    rng = np.random.default_rng(41)
    text = bytes(rng.choice(np.frombuffer(b"AAAAAAAAAAAAAACGT", np.uint8), 60_000))
    payload = _multiblock(text, mem_level=5, strategy=zlib.Z_HUFFMAN_ONLY)
    monkeypatch.setattr(npkernel, "SEG_BITS", 1000)
    monkeypatch.setattr(npkernel, "PREROLL_BITS", 64)
    seen = _spy_kernel(monkeypatch)
    _assert_matches_pure(payload)
    assert seen["fallbacks"] == 0
    assert "straggler" in seen["kinds"], seen["kinds"]


def _load_bench_decode():
    spec = importlib.util.spec_from_file_location(
        "bench_decode", ROOT / "benchmarks" / "bench_decode.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_bench_corpus_decodes_without_fallback(monkeypatch):
    # The differential suite cannot see a kernel that stays
    # byte-identical by declining blocks: pin that none is declined.
    corpus = _load_bench_decode().make_corpus(256 * 1024, seed=5)
    payload = _raw_deflate(corpus)
    seen = _spy_kernel(monkeypatch)
    res = inflate(payload, kernel="numpy")
    assert res.data == corpus and len(res.blocks) > 1
    m = marker_inflate(payload, kernel="numpy")
    assert m.symbols.astype(np.uint8).tobytes() == corpus
    assert seen["fallbacks"] == 0


# ---------------------------------------------------------------------------
# kernel selection
# ---------------------------------------------------------------------------


def test_resolve_explicit_argument_wins(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "numpy")
    spec = resolve_kernel("pure")
    assert spec.name == "pure" and spec.source == "arg"
    assert not spec.use_vectorized(1 << 30)


def test_resolve_env_selection(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "pure")
    spec = resolve_kernel(None)
    assert spec.name == "pure" and spec.source == "env"
    monkeypatch.setenv("REPRO_KERNEL", "numpy")
    spec = resolve_kernel(None)
    assert spec.name == "numpy" and spec.source == "env"
    # Env selection is explicit: no size gate.
    assert spec.use_vectorized(16)


def test_resolve_auto_size_gate(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    spec = resolve_kernel(None)
    assert spec.source == "auto"
    if spec.vectorized:
        assert not spec.use_vectorized(MIN_AUTO_NUMPY_BYTES - 1)
        assert spec.use_vectorized(MIN_AUTO_NUMPY_BYTES)


def test_resolve_unknown_name_raises():
    with pytest.raises(ValueError, match="unknown decode kernel"):
        resolve_kernel("simd")


def test_resolve_spec_passthrough():
    spec = KernelSpec("pure", vectorized=False, source="arg")
    assert resolve_kernel(spec) is spec


def test_explicit_numpy_honored_on_tiny_stream():
    # The fuzz suite relies on this: a 100-byte stream still runs the
    # vectorized path when asked explicitly.
    payload = zlib.compress(b"ACGT" * 25, 6)[2:-4]
    res = inflate(payload, kernel="numpy")
    assert res.data == b"ACGT" * 25
