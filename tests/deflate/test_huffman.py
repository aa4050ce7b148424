"""Canonical Huffman construction, decoding tables, package-merge."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deflate import huffman
from repro.deflate.bitio import BitReader, BitWriter, reverse_bits
from repro.deflate.constants import fixed_dist_lengths, fixed_litlen_lengths
from repro.deflate.huffman import (
    HuffmanDecoder,
    HuffmanEncoder,
    canonical_codes,
    kraft_sum,
    limited_code_lengths,
)
from repro.deflate.inflate import inflate
from repro.errors import HuffmanError
from repro.perf import npkernel


class TestCanonicalCodes:
    def test_rfc1951_example(self):
        # RFC 1951 3.2.2 example: lengths (3,3,3,3,3,2,4,4) for A..H.
        lengths = [3, 3, 3, 3, 3, 2, 4, 4]
        codes = canonical_codes(lengths)
        assert codes == [0b010, 0b011, 0b100, 0b101, 0b110, 0b00, 0b1110, 0b1111]

    def test_zero_length_symbols_skipped(self):
        codes = canonical_codes([2, 0, 2, 0, 2, 2])
        assert codes[1] == 0 and codes[3] == 0
        used = [codes[i] for i in (0, 2, 4, 5)]
        assert len(set(used)) == 4

    def test_over_subscribed_raises(self):
        with pytest.raises(HuffmanError):
            canonical_codes([1, 1, 1])

    def test_empty(self):
        assert canonical_codes([]) == []
        assert canonical_codes([0, 0]) == [0, 0]

    def test_prefix_free(self):
        lengths = [4, 4, 4, 4, 3, 3, 3, 2]
        codes = canonical_codes(lengths)
        bits = [format(c, f"0{l}b") for c, l in zip(codes, lengths)]
        for i, a in enumerate(bits):
            for j, b in enumerate(bits):
                if i != j:
                    assert not b.startswith(a)


class TestKraftSum:
    def test_complete_code(self):
        total, max_bits = kraft_sum([2, 2, 2, 2])
        assert total == 1 << max_bits

    def test_incomplete_code(self):
        total, max_bits = kraft_sum([2, 2, 2])
        assert total < 1 << max_bits

    def test_empty(self):
        assert kraft_sum([0, 0]) == (0, 0)


class TestHuffmanDecoder:
    def test_round_trip_with_encoder(self):
        lengths = [3, 3, 3, 3, 3, 2, 4, 4]
        enc = HuffmanEncoder(lengths)
        dec = HuffmanDecoder(lengths)
        w = BitWriter()
        seq = [5, 0, 7, 6, 2, 5, 1, 3, 4]
        for s in seq:
            enc.write(w, s)
        r = BitReader(w.getvalue())
        assert [dec.decode(r) for _ in seq] == seq

    def test_fixed_litlen_complete(self):
        dec = HuffmanDecoder(fixed_litlen_lengths())
        assert dec.complete
        assert dec.max_bits == 9

    def test_fixed_dist_complete(self):
        dec = HuffmanDecoder(fixed_dist_lengths())
        assert dec.complete
        assert dec.max_bits == 5

    def test_incomplete_rejected_by_default(self):
        with pytest.raises(HuffmanError):
            HuffmanDecoder([1, 0, 0])  # one symbol, 1 bit: incomplete

    def test_incomplete_allowed_when_requested(self):
        dec = HuffmanDecoder([1, 0, 0], allow_incomplete=True)
        assert not dec.complete
        w = BitWriter()
        w.write(0, 1)
        assert dec.decode(BitReader(w.getvalue())) == 0

    def test_invalid_pattern_raises(self):
        dec = HuffmanDecoder([1, 0, 0], allow_incomplete=True)
        r = BitReader(bytes([0b1]))  # the unassigned 1-bit pattern
        with pytest.raises(HuffmanError):
            dec.decode(r)

    def test_over_subscribed_raises(self):
        with pytest.raises(HuffmanError):
            HuffmanDecoder([1, 1, 1])

    def test_no_symbols_raises(self):
        with pytest.raises(HuffmanError):
            HuffmanDecoder([0, 0, 0])

    def test_encoder_rejects_absent_symbol(self):
        enc = HuffmanEncoder([1, 1, 0])
        with pytest.raises(HuffmanError):
            enc.write(BitWriter(), 2)


class TestLazyTable:
    """Validation stays eager; the pure table is built on first use."""

    @pytest.mark.parametrize(
        "lengths, message",
        [
            ([1, 1, 1], "over-subscribed"),
            ([1, 0, 0], "incomplete"),
            ([16, 1] + [0] * 10, "exceeds the DEFLATE cap"),
        ],
    )
    def test_bad_lengths_raise_at_construction(self, lengths, message):
        with pytest.raises(HuffmanError, match=message):
            HuffmanDecoder(lengths)

    def test_table_built_on_first_use_and_kept(self):
        lengths = [3, 3, 3, 3, 3, 2, 4, 4]
        dec = HuffmanDecoder(lengths)
        assert dec._table is None
        table = dec.table
        assert dec.table is table
        codes = canonical_codes(lengths)
        for window in range(1 << dec.max_bits):
            nbits, sym = table[window]
            assert lengths[sym] == nbits
            assert window & ((1 << nbits) - 1) == reverse_bits(codes[sym], nbits)

    def test_decode_builds_the_table(self):
        dec = HuffmanDecoder([1, 0, 0], allow_incomplete=True)
        w = BitWriter()
        w.write(0, 1)
        assert dec.decode(BitReader(w.getvalue())) == 0
        assert dec._table is not None
        assert dec.table[1] == (0, 0)  # the unassigned pattern

    def test_numpy_decode_builds_no_pure_table(self, monkeypatch):
        rng = np.random.default_rng(3)
        text = bytes(rng.choice(np.frombuffer(b"ACGTN\n", np.uint8), 50_000))
        co = zlib.compressobj(6, zlib.DEFLATED, -15, 4)
        payload = co.compress(text) + co.flush()
        huffman._cached_decoder.cache_clear()  # no table left by other tests
        used = []
        decode = npkernel.StreamKernel.decode_block

        def spy(self, h_bit, litlen, dist, **kw):
            used.extend(d for d in (litlen, dist) if d is not None)
            return decode(self, h_bit, litlen, dist, **kw)

        monkeypatch.setattr(npkernel.StreamKernel, "decode_block", spy)
        res = inflate(payload, kernel="numpy")
        assert res.data == text
        assert len(res.blocks) > 1 and all(b.btype == 2 for b in res.blocks)
        assert used and all(d._table is None for d in used)


class TestLimitedCodeLengths:
    def test_all_zero(self):
        assert limited_code_lengths([0, 0, 0], 15) == [0, 0, 0]

    def test_single_symbol_gets_length_one(self):
        assert limited_code_lengths([0, 42, 0], 15) == [0, 1, 0]

    def test_two_equal_symbols(self):
        assert limited_code_lengths([5, 5], 15) == [1, 1]

    def test_kraft_equality(self):
        freqs = [100, 50, 20, 10, 5, 2, 1, 1]
        lengths = limited_code_lengths(freqs, 15)
        total, max_bits = kraft_sum(lengths)
        assert total == 1 << max_bits  # complete code

    def test_respects_limit(self):
        # Fibonacci-ish frequencies force deep codes when unlimited.
        freqs = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610]
        for limit in (7, 9, 15):
            lengths = limited_code_lengths(freqs, limit)
            assert max(lengths) <= limit
            total, max_bits = kraft_sum(lengths)
            assert total == 1 << max_bits

    def test_optimality_vs_unlimited_huffman(self):
        # With a generous limit package-merge must equal Huffman cost.
        import heapq

        freqs = [37, 12, 5, 99, 1, 1, 8, 44, 23, 6]
        lengths = limited_code_lengths(freqs, 15)
        cost_pm = sum(f * l for f, l in zip(freqs, lengths))

        heap = [(f, i) for i, f in enumerate(freqs)]
        heapq.heapify(heap)
        cost_huff = 0
        while len(heap) > 1:
            a = heapq.heappop(heap)[0]
            b = heapq.heappop(heap)[0]
            cost_huff += a + b
            heapq.heappush(heap, (a + b, -1))
        assert cost_pm == cost_huff

    def test_too_many_symbols_for_limit(self):
        with pytest.raises(HuffmanError):
            limited_code_lengths([1] * 9, 3)  # 9 symbols need >3 bits

    @given(
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=2, max_size=60),
        st.sampled_from([7, 15]),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_valid_complete_codes(self, freqs, limit):
        lengths = limited_code_lengths(freqs, limit)
        used = [l for l in lengths if l]
        n_used = sum(1 for f in freqs if f > 0)
        if n_used == 0:
            assert not used
            return
        assert max(used) <= limit
        if n_used == 1:
            assert used == [1]
            return
        total, max_bits = kraft_sum(lengths)
        assert total == 1 << max_bits

    @given(
        st.lists(st.integers(min_value=1, max_value=500), min_size=2, max_size=30),
        st.lists(st.integers(min_value=0, max_value=29), min_size=1, max_size=200),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_encode_decode_round_trip(self, freqs, raw_seq):
        lengths = limited_code_lengths(freqs, 15)
        enc = HuffmanEncoder(lengths)
        dec = HuffmanDecoder(lengths)
        seq = [s % len(freqs) for s in raw_seq]
        w = BitWriter()
        for s in seq:
            enc.write(w, s)
        r = BitReader(w.getvalue())
        assert [dec.decode(r) for _ in seq] == seq
