"""Incremental compressor object and flush semantics."""

import zlib

import pytest

from repro.deflate.streaming import (
    FINISH,
    FULL_FLUSH,
    SYNC_FLUSH,
    DeflateCompressor,
)
from repro.deflate.inflate import inflate
from repro.errors import ReproError


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
    """Streams, ours and zlib's, decode with :func:`inflate`."""

    def _compress(self, data: bytes) -> bytes:
        co = zlib.compressobj(6, zlib.DEFLATED, -15)
        return co.compress(data) + co.flush()

    def test_one_shot(self, fastq_small):
        assert inflate(self._compress(fastq_small)).data == fastq_small

    def test_truncated_stream_detected(self, fastq_small):
        raw = self._compress(fastq_small)
        with pytest.raises(ReproError):
            inflate(raw[: len(raw) // 2])

    def test_round_trip_with_our_compressor(self, fastq_small):
        co = DeflateCompressor(6)
        co.compress(fastq_small)
        result = inflate(co.flush(FINISH))
        assert result.final_seen
        assert result.data == fastq_small
