"""Block-start detection: exhaustive probing with Appendix X-A checks."""

import random
import zlib

import numpy as np
import pytest

from repro.core.sync import find_block_start, prescreen, probe_block, screen_candidates
from repro.data import synthetic_fastq
from repro.deflate.deflate import compress_tokens
from repro.deflate.inflate import inflate
from repro.deflate.tokens import TokenStream
from repro.errors import DeflateError, SyncError
from tests.conftest import zlib_raw


@pytest.fixture(scope="module")
def stream(fastq_medium):
    raw = zlib_raw(fastq_medium, 6)
    full = inflate(raw)
    assert len(full.blocks) >= 4
    return raw, full


class TestProbeBlock:
    def test_true_starts_accepted(self, stream):
        raw, full = stream
        for b in full.blocks[1:-1][:3]:
            assert probe_block(raw, b.start_bit)

    def test_shifted_offsets_rejected(self, stream):
        raw, full = stream
        b = full.blocks[1]
        for delta in (1, 2, 3, 5, 17):
            assert not probe_block(raw, b.start_bit + delta)

    def test_final_block_rejected(self, stream):
        raw, full = stream
        assert not probe_block(raw, full.blocks[-1].start_bit)


class TestFindBlockStart:
    def test_finds_exact_next_start(self, stream):
        """Searching from just after block k's start must land exactly
        on block k+1's start."""
        raw, full = stream
        b1, b2 = full.blocks[1], full.blocks[2]
        sync = find_block_start(raw, start_bit=b1.start_bit + 1)
        assert sync.bit_offset == b2.start_bit

    def test_search_from_zero_finds_first(self, stream):
        raw, full = stream
        sync = find_block_start(raw, start_bit=0)
        assert sync.bit_offset == full.blocks[0].start_bit == 0

    def test_candidates_counted(self, stream):
        raw, full = stream
        b1, b2 = full.blocks[1], full.blocks[2]
        sync = find_block_start(raw, start_bit=b1.start_bit + 1)
        assert sync.candidates_tried == b2.start_bit - b1.start_bit

    def test_max_search_bits_gives_up(self, stream):
        raw, full = stream
        b1 = full.blocks[1]
        with pytest.raises(SyncError):
            find_block_start(raw, start_bit=b1.start_bit + 1, max_search_bits=10)

    def test_no_block_in_random_noise(self):
        import os

        noise = os.urandom(4000)
        with pytest.raises(SyncError):
            find_block_start(noise, start_bit=0, max_search_bits=6000)

    def test_near_end_confirmation_via_final_probe(self, stream):
        """A start whose confirmation run hits the stream's BFINAL block
        must still be confirmed (hit_final_probe path)."""
        raw, full = stream
        penult = full.blocks[-2]
        sync = find_block_start(raw, start_bit=penult.start_bit)
        assert sync.bit_offset == penult.start_bit
        assert sync.blocks_confirmed >= 1

    def test_end_bit_respected(self, stream):
        raw, full = stream
        b2 = full.blocks[2]
        with pytest.raises(SyncError):
            find_block_start(raw, start_bit=b2.start_bit - 8, end_bit=b2.start_bit)

    def test_all_interior_block_starts_found(self, stream):
        """Every non-final block boundary is recoverable by searching
        from one bit past the previous boundary."""
        raw, full = stream
        for prev, cur in zip(full.blocks[:-1], full.blocks[1:-1]):
            sync = find_block_start(raw, start_bit=prev.start_bit + 1)
            assert sync.bit_offset == cur.start_bit

    def test_elapsed_recorded(self, stream):
        raw, full = stream
        sync = find_block_start(raw, start_bit=full.blocks[1].start_bit)
        assert sync.elapsed >= 0.0


class TestPrescreen:
    def test_never_rejects_true_block_starts(self, stream):
        """The fast screen must be sound: every genuine block start
        passes (completeness is the full probe's job)."""
        raw, full = stream
        for b in full.blocks[:-1]:
            assert prescreen(raw, b.start_bit), f"true start {b.start_bit} screened out"

    def test_rejects_final_block(self, stream):
        raw, full = stream
        assert not prescreen(raw, full.blocks[-1].start_bit)

    def test_rejection_rate_on_shifted_offsets(self, stream):
        """The screen's value: the large majority of wrong offsets die
        in the cheap path."""
        raw, full = stream
        base = full.blocks[2].start_bit
        rejected = sum(
            0 if prescreen(raw, base + d) else 1 for d in range(1, 2001)
        )
        assert rejected > 1700  # > 85 %

    def test_near_end_of_buffer(self, stream):
        raw, _ = stream
        for bit in range(8 * len(raw) - 20, 8 * len(raw)):
            prescreen(raw, bit)  # must not raise

    def test_stored_block_screen(self):
        from repro.deflate.bitio import BitWriter

        w = BitWriter()
        w.write(0, 1)
        w.write(0, 2)  # stored
        w.align_to_byte()
        w.write(5000, 16)
        w.write(5000 ^ 0xFFFF, 16)
        w.write_bytes(b"A" * 5000)
        data = w.getvalue()
        assert prescreen(data, 0)
        bad = bytearray(data)
        bad[3] ^= 0xFF  # break NLEN
        assert not prescreen(bytes(bad), 0)


class TestRobustnessAcrossLevels:
    @pytest.mark.parametrize("level", [1, 9])
    def test_sync_works_on_other_levels(self, level, fastq_medium):
        raw = zlib_raw(fastq_medium, level)
        full = inflate(raw)
        if len(full.blocks) < 3:
            pytest.skip("stream has too few blocks at this level")
        b = full.blocks[1]
        sync = find_block_start(raw, start_bit=b.start_bit - 40)
        assert sync.bit_offset == b.start_bit


# -- the vectorised screen against the scalar reference ----------------------


def _scalar_find_block_start(
    data, start_bit=0, *, confirm_blocks=5, max_search_bits=None, end_bit=None
):
    """The one-offset-at-a-time search loop :func:`find_block_start` ran
    before the vectorised screen: the reference its results must equal.
    Returns ``(bit_offset, candidates_tried, blocks_confirmed)`` or
    ``("error", candidates_tried)``."""
    total_bits = 8 * len(data)
    limit = total_bits if end_bit is None else min(end_bit, total_bits)
    if max_search_bits is not None:
        limit = min(limit, start_bit + max_search_bits)
    bit = start_bit
    tried = 0
    while bit < limit:
        tried += 1
        if not prescreen(data, bit):
            bit += 1
            continue
        try:
            result = inflate(
                data, start_bit=bit, strict=True, max_blocks=1 + confirm_blocks
            )
        except DeflateError:
            bit += 1
            continue
        if (
            len(result.blocks) >= 1 + confirm_blocks
            or (len(result.blocks) >= 1 and result.hit_final_probe)
            or (len(result.blocks) >= 1 and result.end_bit >= total_bits - 7)
        ):
            return bit, tried, len(result.blocks)
        bit += 1
    return "error", tried


def _search(data, start_bit, **kw):
    try:
        sync = find_block_start(data, start_bit=start_bit, **kw)
    except SyncError as exc:
        return "error", int(str(exc).split(" after ")[1].split()[0])
    return sync.bit_offset, sync.candidates_tried, sync.blocks_confirmed


def _strict_one_block_ok(data, bit):
    try:
        inflate(data, start_bit=bit, strict=True, max_blocks=1)
    except DeflateError:
        return False
    return True


def _is_fixed_header(data, bit):
    """BFINAL=0, BTYPE=01 at ``bit``."""
    return (int.from_bytes(data[bit >> 3 : (bit >> 3) + 2], "little") >> (bit & 7)) & 7 == 2


def _compress(text, level, mem_level=8, strategy=zlib.Z_DEFAULT_STRATEGY):
    co = zlib.compressobj(level, zlib.DEFLATED, -15, mem_level, strategy)
    return co.compress(text) + co.flush()


def _sync_flushed(text, piece=4096):
    """pigz-style stream: an empty stored block after every piece."""
    co = zlib.compressobj(6, zlib.DEFLATED, -15)
    parts = [
        co.compress(text[i : i + piece]) + co.flush(zlib.Z_SYNC_FLUSH)
        for i in range(0, len(text), piece)
    ]
    return b"".join(parts) + co.flush()


def _fixed_block_at_end():
    """One non-final fixed-Huffman block (1 literal, 4 long matches)
    whose end-of-block code is the last thing in the buffer: the strict
    one-block probe succeeds at bit 0 though the screen's next-symbol
    reach runs past the data."""
    tokens = TokenStream()
    tokens.add_literal(ord("A"))
    for _ in range(4):
        tokens.add_match(1, 258)
    data = compress_tokens(b"A" * 1033, tokens, bfinal=False)
    (block,) = inflate(data, strict=True, max_blocks=1).blocks
    assert block.btype == 1 and block.end_bit > 8 * len(data) - 8
    return data


@pytest.fixture(scope="module")
def screen_inputs():
    text = synthetic_fastq(150, read_length=100, seed=11, quality_profile="safe")
    fixed = _compress(text, 6, mem_level=4, strategy=zlib.Z_FIXED)
    return {
        "level1": _compress(text, 1),
        "level6": _compress(text, 6),
        "level9": _compress(text, 9),
        "fixed-only": fixed,
        # A small memLevel caps zlib's stored blocks well below 64 KiB.
        "stored": _compress(text, 0, mem_level=1),
        "sync-flush": _sync_flushed(text),
        # Cut mid-block: fixed-Huffman candidates near the end run out
        # of data while being screened.
        "truncated-fixed": fixed[: len(fixed) // 2 + 3],
        "fixed-block-at-end": _fixed_block_at_end(),
    }


SCREEN_INPUTS = [
    "level1", "level6", "level9", "fixed-only", "stored", "sync-flush", "truncated-fixed",
    "fixed-block-at-end",
]


class TestScreenExactness:
    @pytest.mark.parametrize("name", SCREEN_INPUTS)
    def test_never_drops_a_probe_survivor(self, screen_inputs, name):
        """At every bit offset: the screen keeps only offsets
        :func:`prescreen` passes, decides exactly as it does for every
        non-fixed header, and drops a fixed-Huffman offset only when a
        strict one-block decode fails there."""
        data = screen_inputs[name]
        total = 8 * len(data)
        kept = set(screen_candidates(data, 0, total).tolist())
        for bit in range(total):
            passes = prescreen(data, bit)
            if bit in kept:
                assert passes, f"{name}: bit {bit} kept but prescreen rejects it"
            elif passes:
                assert _is_fixed_header(data, bit), f"{name}: bit {bit} dropped"
                assert not _strict_one_block_ok(data, bit), (
                    f"{name}: bit {bit} dropped but a strict block decodes there"
                )

    @pytest.mark.parametrize("name", SCREEN_INPUTS)
    def test_last_80_bytes(self, screen_inputs, name):
        """A window over only the buffer's tail, where every peek runs
        past the data, decides as the whole-buffer screen does."""
        data = screen_inputs[name]
        total = 8 * len(data)
        lo = max(0, total - 8 * 80)
        kept = screen_candidates(data, lo, total).tolist()
        assert kept == [b for b in screen_candidates(data, 0, total).tolist() if b >= lo]
        for b in range(lo, total):
            if prescreen(data, b) and b not in kept:
                assert not _strict_one_block_ok(data, b), b

    @pytest.mark.parametrize("name", SCREEN_INPUTS)
    def test_windows_compose(self, screen_inputs, name):
        """Screening in pieces equals screening in one pass."""
        data = screen_inputs[name]
        total = 8 * len(data)
        whole = screen_candidates(data, 0, total)
        cuts = sorted(
            {min(c, total) for c in (0, 1, 7, 8, 1000, 4099, total // 2, total - 13, total)}
        )
        pieces = [screen_candidates(data, a, b) for a, b in zip(cuts, cuts[1:])]
        assert np.array_equal(np.concatenate(pieces), whole)

    @pytest.mark.parametrize("kind", [bytearray, memoryview])
    def test_buffer_types(self, screen_inputs, kind):
        for name in SCREEN_INPUTS:
            data = screen_inputs[name]
            total = 8 * len(data)
            assert np.array_equal(
                screen_candidates(kind(data), 0, total),
                screen_candidates(data, 0, total),
            )

    def test_empty_and_clamped_ranges(self, screen_inputs):
        data = screen_inputs["level6"]
        total = 8 * len(data)
        assert len(screen_candidates(data, 100, 100)) == 0
        assert len(screen_candidates(data, total, total + 50)) == 0
        assert np.array_equal(
            screen_candidates(data, total - 40, total + 1000),
            screen_candidates(data, total - 40, total),
        )


class TestFindBlockStartMatchesScalarLoop:
    @pytest.mark.parametrize("name", SCREEN_INPUTS)
    def test_same_results(self, screen_inputs, name):
        data = screen_inputs[name]
        total = 8 * len(data)
        starts = sorted({1, total // 5, total // 2, (3 * total) // 4, max(0, total - 8 * 80)})
        for start in starts:
            expected = _scalar_find_block_start(data, start)
            for kind in (bytes, bytearray, memoryview):
                assert _search(kind(data), start) == expected, (start, kind)

    @pytest.mark.parametrize("name", ["level6", "fixed-only", "sync-flush"])
    def test_same_results_with_limits(self, screen_inputs, name):
        data = screen_inputs[name]
        start = 8 * len(data) // 3
        for kw in (
            {"max_search_bits": 5000},
            {"max_search_bits": 20000},
            {"end_bit": start + 9000},
            {"confirm_blocks": 1},
            {"confirm_blocks": 0, "end_bit": start + 60000},
        ):
            assert _search(data, start, **kw) == _scalar_find_block_start(data, start, **kw), kw

    def test_every_block_boundary(self, screen_inputs):
        """Searching from one bit past each block start, through every
        boundary of the multi-block inputs."""
        for name in ("fixed-only", "sync-flush"):
            data = screen_inputs[name]
            for b in inflate(data).blocks:
                assert _search(data, b.start_bit + 1) == _scalar_find_block_start(
                    data, b.start_bit + 1
                ), (name, b.start_bit)

    def test_random_noise(self):
        noise = random.Random(13).randbytes(3000)
        assert _search(noise, 0, max_search_bits=20000) == _scalar_find_block_start(
            noise, 0, max_search_bits=20000
        )
