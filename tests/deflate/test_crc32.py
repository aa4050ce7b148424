"""CRC-32 and Adler-32 against the zlib reference implementations."""

import random
import sys
import threading
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deflate import crc32 as crc32_module
from repro.deflate.adler import adler32
from repro.deflate.crc32 import Crc32, crc32, crc32_combine

LANE = crc32_module._LANE
THRESHOLD = crc32_module._MIN_LANES
SLAB = crc32_module._SLAB
INITS = (0, 0xDEADBEEF, zlib.crc32(b"chained prefix"))


def _noise(n: int, seed: int = 14) -> bytes:
    return random.Random(seed).randbytes(n)


class TestCrc32Values:
    def test_empty(self):
        assert crc32(b"") == 0
        assert crc32(b"") == zlib.crc32(b"")

    def test_known_vector(self):
        # The classic check value for CRC-32.
        assert crc32(b"123456789") == 0xCBF43926

    def test_matches_zlib_ascii(self):
        data = b"The quick brown fox jumps over the lazy dog"
        assert crc32(data) == zlib.crc32(data)

    def test_matches_zlib_binary(self):
        data = bytes(range(256)) * 7
        assert crc32(data) == zlib.crc32(data)

    def test_incremental_matches_oneshot(self):
        data = b"abcdefghij" * 100
        c = crc32(data[:300])
        c = crc32(data[300:], c)
        assert c == crc32(data)

    @given(st.binary(max_size=512))
    @settings(max_examples=100, deadline=None)
    def test_matches_zlib_random(self, data):
        assert crc32(data) == zlib.crc32(data)

    @given(st.binary(max_size=256), st.binary(max_size=256))
    @settings(max_examples=50, deadline=None)
    def test_chaining_matches_zlib(self, a, b):
        assert crc32(b, crc32(a)) == zlib.crc32(b, zlib.crc32(a))


class TestCrc32Lanes:
    """Inputs long enough for the lane-parallel path, against zlib."""

    @pytest.mark.parametrize(
        "n",
        [
            0,
            1,
            LANE - 1,
            LANE,
            LANE + 1,
            THRESHOLD - 1,
            THRESHOLD,
            THRESHOLD + 1,
            # odd lane counts at the first fold levels, ragged tails
            THRESHOLD + 3 * LANE + 5,
            THRESHOLD + 5 * LANE + 7,
            127 * LANE + (LANE - 1),  # odd at every fold level
            SLAB,
            2 * SLAB + 3 * LANE + 11,  # several slabs chained
            3_300_001,
        ],
    )
    @pytest.mark.parametrize("init", INITS)
    def test_lengths_and_inits_match_zlib(self, n, init):
        data = _noise(n)
        assert crc32(data, init) == zlib.crc32(data, init)

    @pytest.mark.parametrize("lanes", [3, 5, 7])
    @pytest.mark.parametrize("init", INITS)
    def test_few_odd_lanes(self, monkeypatch, lanes, init):
        # With the threshold lowered, 3/5/7 lanes plus a ragged tail take
        # the lane path: an odd register count at every fold level.
        monkeypatch.setattr(crc32_module, "_MIN_LANES", LANE)
        data = _noise(lanes * LANE + 9)
        assert crc32(data, init) == zlib.crc32(data, init)

    def test_small_slabs_chain(self, monkeypatch):
        monkeypatch.setattr(crc32_module, "_SLAB", 4 * LANE)
        data = _noise(THRESHOLD + 7 * LANE + 3)
        assert crc32(data, 0xDEADBEEF) == zlib.crc32(data, 0xDEADBEEF)

    @pytest.mark.parametrize(
        "wrap", [bytes, bytearray, lambda b: memoryview(b"..." + b + b"...")[3:-3]]
    )
    def test_buffer_types(self, wrap):
        data = _noise(5 * THRESHOLD + 13)
        assert crc32(wrap(data), INITS[2]) == zlib.crc32(data, INITS[2])

    def test_accumulator_chunks_straddle_threshold(self):
        data = _noise(THRESHOLD * 12)
        acc = Crc32()
        pos = 0
        for size in (1, THRESHOLD - 1, THRESHOLD, THRESHOLD + 1, 5, 3 * THRESHOLD + 7):
            acc.update(data[pos : pos + size])
            pos += size
        acc.update(data[pos:])
        assert acc.value == zlib.crc32(data)
        assert acc.length == len(data)

    def test_threads_building_operators_at_once(self):
        # Every thread finds the operator cache empty and fills it at
        # once; levels built out of order show up in a few trials in 100.
        data = _noise(THRESHOLD * 4 + 17)
        n_threads, long_len = 8, 1 << 40
        expected = [
            (zlib.crc32(data, i), _reference_combine(i, 7, long_len + i))
            for i in range(n_threads)
        ]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(100):
                crc32_module._zero_op.cache_clear()
                start = threading.Barrier(n_threads)
                results = [None] * n_threads

                def work(i):
                    start.wait(timeout=60)
                    results[i] = (crc32(data, i), crc32_combine(i, 7, long_len + i))

                threads = [
                    threading.Thread(target=work, args=(i,)) for i in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert results == expected
        finally:
            sys.setswitchinterval(old)

    @given(
        st.binary(min_size=THRESHOLD - LANE, max_size=3 * THRESHOLD),
        st.integers(0, 0xFFFFFFFF),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_zlib_around_threshold(self, data, init):
        assert crc32(data, init) == zlib.crc32(data, init)


class TestCrc32Accumulator:
    def test_accumulator_tracks_value_and_length(self):
        acc = Crc32()
        acc.update(b"hello ")
        acc.update(b"world")
        assert acc.value == crc32(b"hello world")
        assert acc.length == 11

    def test_empty_accumulator(self):
        acc = Crc32()
        assert acc.value == 0
        assert acc.length == 0


class TestCrc32Combine:
    def test_combine_two_halves(self):
        a, b = b"first half|", b"second half"
        combined = crc32_combine(crc32(a), crc32(b), len(b))
        assert combined == crc32(a + b)

    def test_combine_empty_second(self):
        a = b"only part"
        assert crc32_combine(crc32(a), 0, 0) == crc32(a)

    def test_combine_matches_zlib(self):
        # zlib.crc32_combine is not exposed in Python, so verify
        # against direct computation over many splits.
        data = bytes(range(256)) * 3
        for split in (0, 1, 7, 128, 500, len(data)):
            a, b = data[:split], data[split:]
            assert crc32_combine(crc32(a), crc32(b), len(b)) == crc32(data)

    @given(st.binary(max_size=200), st.binary(max_size=200), st.binary(max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_combine_associative(self, a, b, c):
        whole = crc32(a + b + c)
        ab = crc32_combine(crc32(a), crc32(b), len(b))
        abc = crc32_combine(ab, crc32(c), len(c))
        assert abc == whole


    @pytest.mark.parametrize(
        "len2", [0, 1, 2, 31, 33, 1023, 1025, 65535, 65537, 3 * THRESHOLD + 1]
    )
    def test_combine_lengths_match_zlib(self, len2):
        a, b = _noise(100, seed=1), _noise(len2, seed=2)
        assert crc32_combine(zlib.crc32(a), zlib.crc32(b), len2) == zlib.crc32(a + b)

    @pytest.mark.parametrize("len2", [(1 << 32) + 5, (1 << 32) - 1, (1 << 40) + 3])
    def test_combine_beyond_32_bit_lengths(self, len2):
        # No buffer that long: check against zlib's bit-matrix algorithm.
        crc1, crc2 = zlib.crc32(b"left"), zlib.crc32(b"right")
        assert crc32_combine(crc1, crc2, len2) == _reference_combine(crc1, crc2, len2)


def _reference_combine(crc1: int, crc2: int, len2: int) -> int:
    """zlib's ``crc32_combine``: square the one-zero-bit matrix per bit."""

    def times(mat, vec):
        out, i = 0, 0
        while vec:
            if vec & 1:
                out ^= mat[i]
            vec >>= 1
            i += 1
        return out

    def square(mat):
        return [times(mat, row) for row in mat]

    op = [0xEDB88320] + [1 << n for n in range(31)]  # one zero bit
    op = square(square(square(op)))  # one zero byte
    while len2:
        if len2 & 1:
            crc1 = times(op, crc1)
        len2 >>= 1
        op = square(op)
    return crc1 ^ crc2


class TestAdler32:
    def test_empty(self):
        assert adler32(b"") == 1 == zlib.adler32(b"")

    def test_known_vector(self):
        assert adler32(b"Wikipedia") == 0x11E60398

    def test_incremental(self):
        data = b"x" * 10000
        v = adler32(data[:4000])
        assert adler32(data[4000:], v) == adler32(data)

    def test_long_input_deferred_modulo(self):
        # Exceeds the NMAX deferral window; checks the modulo batching.
        data = b"\xff" * 20000
        assert adler32(data) == zlib.adler32(data)

    @given(st.binary(max_size=1024))
    @settings(max_examples=100, deadline=None)
    def test_matches_zlib_random(self, data):
        assert adler32(data) == zlib.adler32(data)
