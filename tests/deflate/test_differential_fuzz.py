"""Differential fuzz: each per-block decode strategy vs the references.

``inflate`` (byte domain) and ``marker_inflate`` (marker domain) each
run one block driver; what varies is how a Huffman block is decoded:
by the pure symbol loops — the fast loop (``inflate`` without token
capture), the general loop (token capture and strict probes) and the
marker loop — or by the two-stage numpy kernel, which hands any block
it declines back to the domain's pure loop.  Each seeded stream is
decoded several ways and cross-checked:

* ``zlib.decompress`` — the external ground truth for output bytes;
* the fast loop against the general loop, the pre-optimization
  per-symbol decoder — so fast-vs-general is literally
  optimized-vs-pre-optimization;
* ``marker_inflate`` from a fully known (empty) context, whose symbol
  stream must equal the byte stream exactly.

Byte output must be identical across all of them, and the final bit
positions of the in-repo decoders must agree exactly.

Every seeded stream also decodes under ``kernel="pure"`` and
``kernel="numpy"`` in *both* domains, and the pair must agree on
output bytes/symbols, final bit position, block table, captured
tokens, and the marker window — including through the recovery paths
(pugz salvage around deliberately smashed blocks).  These comparisons
check the per-block strategies against each other; the driver edges
they share (limits, stop bits, sinks, budgets) are pinned against
recorded literals in :mod:`tests.deflate.test_driver_golden`.

Strict (probing) decodes get the same treatment: under ``kernel="numpy"``
a Huffman block's first KiB runs in the pure loop and the kernel
finishes the block, so at every true block start, at the offsets
around it, and on truncated and smashed copies, both kernels must raise
the same error at the same bit or return the same bytes and blocks —
also on blocks built to break the probe's rules after their first KiB.

~50 streams: 10 seeds x 5 stream shapes (stored blocks, fixed-Huffman,
dynamic at two levels, sync-flush seams), over random-DNA and
FASTQ-like corpora.  Runs in tier-1 (small inputs, a few seconds).
"""

from __future__ import annotations

import random
import zlib

import numpy as np
import pytest

from repro.core.marker_inflate import marker_inflate
from repro.core.pugz import pugz_decompress_payload
from repro.deflate import constants as C
from repro.deflate.bitio import BitWriter
from repro.deflate.huffman import HuffmanEncoder
from repro.deflate.inflate import inflate
from repro.errors import AsciiCheckError, BlockSizeError, DeflateError, HuffmanError
from repro.perf import npkernel

SEEDS = range(10)


def make_text(seed: int, n: int = 24_000) -> bytes:
    """Seeded random-DNA/FASTQ-like text (alternates shape by seed)."""
    rng = random.Random(0xF52 + seed)
    if seed % 2:
        return bytes(rng.choice(b"ACGT") for _ in range(n))
    out = bytearray()
    rid = 0
    while len(out) < n:
        rid += 1
        k = rng.randint(60, 90)
        seq = bytes(rng.choice(b"ACGT") for _ in range(k))
        qual = bytes(rng.randint(33, 73) for _ in range(k))
        out += b"@read%d\n" % rid + seq + b"\n+\n" + qual + b"\n"
    return bytes(out[:n])


_SHAPE_ARGS = {
    "stored": (0, zlib.DEFLATED, -15),
    "fixed": (6, zlib.DEFLATED, -15, 8, zlib.Z_FIXED),
    "dynamic_fast": (1, zlib.DEFLATED, -15),
    "dynamic_best": (9, zlib.DEFLATED, -15),
}


def compress_shape(text: bytes, shape: str, pieces: int = 1) -> bytes:
    """Raw DEFLATE stream of ``text`` in the requested block shape.

    ``pieces > 1`` ends a block (``Z_BLOCK``) after each but the last of
    that many equal pieces of ``text``, so every shape has non-final
    blocks; the sync-flush shape keeps its own three seams.
    """
    if shape == "sync_flush":
        co = zlib.compressobj(6, zlib.DEFLATED, -15)
        third = len(text) // 3
        return (
            co.compress(text[:third])
            + co.flush(zlib.Z_SYNC_FLUSH)
            + co.compress(text[third : 2 * third])
            + co.flush(zlib.Z_SYNC_FLUSH)
            + co.compress(text[2 * third :])
            + co.flush()
        )
    co = zlib.compressobj(*_SHAPE_ARGS[shape])
    cut = [len(text) * i // pieces for i in range(pieces + 1)]
    head = b"".join(
        co.compress(text[a:b]) + co.flush(zlib.Z_BLOCK) for a, b in zip(cut[:-2], cut[1:-1])
    )
    return head + co.compress(text[cut[-2] :]) + co.flush()


SHAPES = ("stored", "fixed", "dynamic_fast", "dynamic_best", "sync_flush")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_differential_decode(seed: int, shape: str):
    text = make_text(seed)
    payload = compress_shape(text, shape)
    reference = zlib.decompress(payload, -15)
    assert reference == text  # corpus sanity

    fast = inflate(payload)
    general = inflate(payload, capture_tokens=True)
    markers = marker_inflate(payload, window=b"")

    # Byte-identical output across every decoder.
    assert fast.data == reference
    assert general.data == reference
    assert bytes(markers.symbols.astype(np.uint8)) == reference

    # Identical final bit positions (the fast loop's buffer writeback
    # must land the cursor exactly where the per-symbol loop does).
    assert fast.end_bit == general.end_bit
    assert markers.end_bit == fast.end_bit
    assert fast.final_seen and general.final_seen and markers.final_seen

    # Identical block structure.
    assert [
        (b.start_bit, b.end_bit, b.out_start, b.out_end, b.btype, b.bfinal)
        for b in fast.blocks
    ] == [
        (b.start_bit, b.end_bit, b.out_start, b.out_end, b.btype, b.bfinal)
        for b in general.blocks
    ]


def _block_tuples(blocks):
    return [
        (b.start_bit, b.end_bit, b.out_start, b.out_end, b.btype, b.bfinal)
        for b in blocks
    ]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_kernel_differential(seed: int, shape: str):
    """The kernel strategy is bit-for-bit equal to the pure one.

    Covers both domains' drivers: byte-output ``inflate`` (with and
    without token capture) and marker-domain ``marker_inflate`` from an
    undetermined context.  The explicit ``kernel="numpy"`` argument
    bypasses the auto-selection size gate, so the small fuzz streams
    genuinely exercise the vectorized per-block path.
    """
    text = make_text(seed)
    payload = compress_shape(text, shape)
    reference = zlib.decompress(payload, -15)

    p = inflate(payload, kernel="pure")
    n = inflate(payload, kernel="numpy")
    assert n.data == p.data == reference
    assert n.end_bit == p.end_bit
    assert n.final_seen == p.final_seen
    assert _block_tuples(n.blocks) == _block_tuples(p.blocks)

    pt = inflate(payload, capture_tokens=True, kernel="pure")
    nt = inflate(payload, capture_tokens=True, kernel="numpy")
    assert nt.data == pt.data == reference
    assert nt.end_bit == pt.end_bit
    assert np.array_equal(nt.tokens.offsets(), pt.tokens.offsets())
    assert np.array_equal(nt.tokens.values(), pt.tokens.values())

    mp = marker_inflate(payload, kernel="pure")
    mn = marker_inflate(payload, kernel="numpy")
    assert np.array_equal(mn.symbols, mp.symbols)
    assert mn.end_bit == mp.end_bit
    assert mn.final_seen == mp.final_seen
    assert mn.total_output == mp.total_output
    assert np.array_equal(mn.window, mp.window)
    assert _block_tuples(mn.blocks) == _block_tuples(mp.blocks)


@pytest.mark.parametrize("seed", range(5))
def test_kernel_differential_recovery(seed: int):
    """Recovery paths agree between kernels on corrupted streams.

    Each seeded stream gets one block header smashed mid-stream; pugz
    in recover mode must salvage the identical output, hole table, and
    per-chunk outcomes under both kernels.
    """
    text = make_text(seed, n=60_000)
    payload = compress_shape(text, "sync_flush")
    blocks = inflate(payload).blocks
    if len(blocks) < 3:
        pytest.skip("stream produced too few blocks to corrupt safely")
    target = blocks[len(blocks) // 2]
    byte0 = target.start_bit // 8
    bad = bytearray(payload)
    bad[byte0 + 1 : byte0 + 4] = b"\xff\xff\xff"
    bad = bytes(bad)

    results = {}
    for k in ("pure", "numpy"):
        from repro.core.pugz import PugzReport

        report = PugzReport(n_chunks_requested=3)
        out = pugz_decompress_payload(
            bad, 0, 8 * len(bad), n_chunks=3, report=report,
            on_error="recover", kernel=k,
        )
        results[k] = (
            out,
            [h.to_dict() for h in report.holes],
            report.chunk_outcomes,
            report.unresolved_markers,
        )
    assert results["pure"] == results["numpy"]


def _strict(data, bit: int, kernel: str):
    """A strict six-block decode, reduced to what must match across kernels."""
    try:
        r = inflate(data, start_bit=bit, strict=True, max_blocks=6, kernel=kernel)
    except DeflateError as exc:
        return type(exc), exc.bit_offset, str(exc)
    return r.data, r.end_bit, _block_tuples(r.blocks), r.hit_final_probe


def _assert_strict_kernels_agree(data, starts):
    total = 8 * len(data)
    for bit in sorted({s + d for s in starts for d in range(-8, 9) if 0 <= s + d < total}):
        assert _strict(data, bit, "numpy") == _strict(data, bit, "pure"), bit


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_strict_kernel_differential(seed: int, shape: str):
    """Strict decodes agree between kernels at every true block start
    and +-1..8 bits around it, on the stream, a truncated copy and a
    copy with three bytes smashed mid-stream."""
    payload = compress_shape(make_text(seed), shape, pieces=3)
    starts = [b.start_bit for b in inflate(payload).blocks]
    mid = len(payload) // 2
    smashed = payload[:mid] + b"\xff\x00\xff" + payload[mid + 3 :]
    for data in (payload, payload[: mid + 5], smashed):
        _assert_strict_kernels_agree(data, starts)


_FIXED_LIT = HuffmanEncoder(C.fixed_litlen_lengths())
_FIXED_DIST = HuffmanEncoder(C.fixed_dist_lengths())
_TEXT = list(b"ACGTN\n" * 300)  # 1800 ASCII literals


def _fixed_stream(blocks) -> tuple[bytes, list[int]]:
    """Raw DEFLATE of fixed-Huffman blocks, the last one final, and the
    blocks' start bits.  A block lists literal bytes, ``"run"`` (a
    distance-1, length-258 match) and ``"bad-dist"`` (a length-3 match
    with distance symbol 30)."""
    w = BitWriter()
    starts = []
    for i, toks in enumerate(blocks):
        starts.append(w.tell_bits())
        w.write(int(i == len(blocks) - 1), 1)
        w.write(C.BTYPE_FIXED, 2)
        for t in toks:
            if t == "run":
                _FIXED_LIT.write(w, 285)
                _FIXED_DIST.write(w, 0)
            elif t == "bad-dist":
                _FIXED_LIT.write(w, 257)
                _FIXED_DIST.write(w, 30)
            else:
                _FIXED_LIT.write(w, t)
        _FIXED_LIT.write(w, C.END_OF_BLOCK)
    return w.getvalue(), starts


@pytest.mark.parametrize(
    "bad, error",
    [
        (_TEXT[:1500] + [0xC3] + _TEXT[:200], AsciiCheckError),
        (_TEXT[:1200] + ["run"] * 16_300, BlockSizeError),
        (_TEXT[:1500] + ["bad-dist"] + _TEXT[:100], HuffmanError),
    ],
    ids=["ascii", "4MiB", "distance"],
)
def test_strict_kernel_violation_past_first_kib(bad, error, monkeypatch):
    """A probe rule broken after a block's first KiB is caught on the
    kernel's side of the hand-off, and the pure resume raises exactly
    the pure decoder's error, from the block and from a block before."""
    data, starts = _fixed_stream([_TEXT, bad, _TEXT, _TEXT])
    entered = []
    decode = npkernel.StreamKernel.decode_block

    def spy(kern, h_bit, *a, **kw):
        entered.append(h_bit)
        return decode(kern, h_bit, *a, **kw)

    monkeypatch.setattr(npkernel.StreamKernel, "decode_block", spy)
    for bit in starts[:2]:
        entered.clear()
        with pytest.raises(error) as exc:
            inflate(data, start_bit=bit, strict=True, max_blocks=6, kernel="numpy")
        assert starts[1] < entered[-1] < exc.value.bit_offset < starts[2]
    _assert_strict_kernels_agree(data, starts)
