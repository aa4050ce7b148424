"""Incremental compressor/decompressor objects and flush semantics."""

import random
import zlib

import pytest

from repro.deflate.streaming import (
    FINISH,
    FULL_FLUSH,
    SYNC_FLUSH,
    DeflateCompressor,
    InflateDecompressor,
)
from repro.data import synthetic_fastq
from repro.deflate.inflate import inflate
from repro.errors import DeflateError, ReproError


class TestCompressor:
    def test_single_finish(self, fastq_small):
        co = DeflateCompressor(6)
        co.compress(fastq_small)
        out = co.flush(FINISH)
        assert zlib.decompress(out, wbits=-15) == fastq_small
        assert co.finished

    def test_sync_flush_byte_aligns(self, fastq_small):
        co = DeflateCompressor(6)
        co.compress(fastq_small[:1000])
        frag = co.flush(SYNC_FLUSH)
        # Z_SYNC_FLUSH ends with the empty stored block 00 00 FF FF.
        assert frag.endswith(b"\x00\x00\xff\xff")

    def test_multi_flush_stream_valid(self, fastq_small):
        co = DeflateCompressor(6)
        out = bytearray()
        step = len(fastq_small) // 5
        for i in range(0, len(fastq_small), step):
            co.compress(fastq_small[i : i + step])
            out += co.flush(SYNC_FLUSH)
        out += co.flush(FINISH)
        assert zlib.decompress(bytes(out), wbits=-15) == fastq_small

    def test_history_kept_across_sync_flush(self):
        """Matches across a SYNC_FLUSH boundary still work.

        Random DNA is incompressible on its own, so the second copy
        compresses well only if the first survives as history."""
        from repro.data import random_dna

        unit = random_dna(5000, seed=77)
        co = DeflateCompressor(6)
        co.compress(unit)
        a = co.flush(SYNC_FLUSH)
        co.compress(unit)  # should match into retained history
        b = co.flush(FINISH)
        assert len(b) < len(a) / 3
        assert zlib.decompress(a + b, wbits=-15) == unit + unit

    def test_full_flush_clears_history(self):
        from repro.data import random_dna

        unit = random_dna(5000, seed=78)
        co = DeflateCompressor(6)
        co.compress(unit)
        a = co.flush(FULL_FLUSH)
        co.compress(unit)
        b = co.flush(FINISH)
        # Without history the second unit compresses like the first.
        assert len(b) > len(a) * 0.7
        assert zlib.decompress(a + b, wbits=-15) == unit + unit

    def test_full_flush_point_is_restartable(self, fastq_small):
        """A decoder can start at a FULL_FLUSH boundary with an empty
        window — the property blocked formats rely on."""
        from repro.deflate.inflate import inflate

        co = DeflateCompressor(6)
        co.compress(fastq_small[:4000])
        a = co.flush(FULL_FLUSH)
        co.compress(fastq_small[4000:8000])
        b = co.flush(FINISH)
        tail = inflate(a + b, start_bit=8 * len(a))
        assert tail.data == fastq_small[4000:8000]

    def test_finished_rejects_more_input(self):
        co = DeflateCompressor(6)
        co.flush(FINISH)
        with pytest.raises(ReproError):
            co.compress(b"more")
        with pytest.raises(ReproError):
            co.flush(FINISH)

    def test_invalid_mode_and_level(self):
        with pytest.raises(ValueError):
            DeflateCompressor(0)
        co = DeflateCompressor(6)
        with pytest.raises(ValueError):
            co.flush("noflush")

    def test_empty_finish(self):
        out = DeflateCompressor(6).flush(FINISH)
        assert zlib.decompress(out, wbits=-15) == b""


class TestDecompressor:
    def _compress(self, data: bytes) -> bytes:
        co = zlib.compressobj(6, zlib.DEFLATED, -15)
        return co.compress(data) + co.flush()

    def test_one_shot(self, fastq_small):
        dec = InflateDecompressor()
        out = dec.decompress(self._compress(fastq_small))
        out += dec.finish()
        assert out == fastq_small

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_feed_sizes(self, seed, fastq_small):
        raw = self._compress(fastq_small)
        rng = random.Random(seed)
        dec = InflateDecompressor()
        got = bytearray()
        pos = 0
        while pos < len(raw):
            step = rng.randint(1, 9000)
            got += dec.decompress(raw[pos : pos + step])
            pos += step
        got += dec.finish()
        assert bytes(got) == fastq_small

    def test_byte_at_a_time(self):
        data = b"tiny payload for slow feeding" * 30
        raw = self._compress(data)
        dec = InflateDecompressor()
        got = bytearray()
        for i in range(len(raw)):
            got += dec.decompress(raw[i : i + 1])
        got += dec.finish()
        assert bytes(got) == data

    def test_truncated_stream_detected(self, fastq_small):
        raw = self._compress(fastq_small)
        dec = InflateDecompressor()
        dec.decompress(raw[: len(raw) // 2])
        with pytest.raises(ReproError):
            dec.finish()

    @pytest.mark.parametrize("piece", [4096, 100_000])
    def test_finish_raises_the_decoders_error(self, piece):
        """A reserved BTYPE past the 64 KiB buffer trim surfaces at
        finish() as inflate's own error, at its absolute bit offset."""
        text = synthetic_fastq(2000, read_length=100, seed=3)
        co = zlib.compressobj(6, zlib.DEFLATED, -15)
        third = len(text) // 3
        head = co.compress(text[:third]) + co.flush(zlib.Z_FULL_FLUSH)
        head += co.compress(text[third : 2 * third]) + co.flush(zlib.Z_FULL_FLUSH)
        tail = bytearray(co.compress(text[2 * third :]) + co.flush())
        tail[0] |= 0b110  # BTYPE 3 in the block after the second flush
        raw = head + bytes(tail)
        assert len(head) > 65536
        with pytest.raises(DeflateError) as expected:
            inflate(raw)
        dec = InflateDecompressor()
        for i in range(0, len(raw), piece):
            dec.decompress(raw[i : i + piece])
        with pytest.raises(type(expected.value)) as got:
            dec.finish()
        assert got.value.bit_offset == expected.value.bit_offset

    def test_data_after_final_block_rejected(self):
        raw = self._compress(b"done")
        dec = InflateDecompressor()
        dec.decompress(raw)
        assert dec.finished
        with pytest.raises(ReproError):
            dec.decompress(b"trailing garbage")

    def test_round_trip_with_our_compressor(self, fastq_small):
        co = DeflateCompressor(6)
        co.compress(fastq_small)
        raw = co.flush(FINISH)
        dec = InflateDecompressor()
        out = dec.decompress(raw) + dec.finish()
        assert out == fastq_small
