"""Memory-bounded (striped) parallel decompression."""

import gzip as stdlib_gzip
import multiprocessing

import pytest

from repro.cli import main
from repro.core.windowed import WindowedReport, iter_pugz, pugz_decompress_windowed
from repro.data import gzip_zlib
from repro.errors import GzipFormatError
from repro.io import PugzStream
from repro.robustness import default_corpora


class TestExactness:
    @pytest.mark.parametrize("n_chunks,stripe", [(4, 1), (4, 2), (8, 3), (6, 6), (5, 10)])
    def test_stripe_geometries(self, n_chunks, stripe, fastq_medium, fastq_medium_gz6):
        parts = []
        report = pugz_decompress_windowed(
            fastq_medium_gz6, parts.append, n_chunks=n_chunks, stripe_chunks=stripe
        )
        assert b"".join(parts) == fastq_medium
        assert report.output_size == len(fastq_medium)

    def test_single_chunk(self, fastq_medium, fastq_medium_gz6):
        parts = []
        pugz_decompress_windowed(fastq_medium_gz6, parts.append, n_chunks=1)
        assert b"".join(parts) == fastq_medium

    @pytest.mark.parametrize("level", [1, 9])
    def test_other_levels(self, level, fastq_medium):
        gz = gzip_zlib(fastq_medium, level)
        parts = []
        pugz_decompress_windowed(gz, parts.append, n_chunks=4, stripe_chunks=2)
        assert b"".join(parts) == fastq_medium


class TestMemoryBound:
    def test_peak_below_total(self, fastq_medium, fastq_medium_gz6):
        parts = []
        report = pugz_decompress_windowed(
            fastq_medium_gz6, parts.append, n_chunks=8, stripe_chunks=2
        )
        if report.chunks >= 6:
            assert report.peak_stripe_symbols < 0.6 * len(fastq_medium)

    def test_smaller_stripes_smaller_peak(self, fastq_medium, fastq_medium_gz6):
        peaks = {}
        for stripe in (1, 4):
            parts = []
            report = pugz_decompress_windowed(
                fastq_medium_gz6, parts.append, n_chunks=8, stripe_chunks=stripe
            )
            peaks[stripe] = report.peak_stripe_symbols
        assert peaks[1] <= peaks[4]

    def test_stripe_count_reported(self, fastq_medium_gz6):
        parts = []
        report = pugz_decompress_windowed(
            fastq_medium_gz6, parts.append, n_chunks=6, stripe_chunks=2
        )
        assert report.stripes == -(-report.chunks // 2)


class TestValidation:
    def test_invalid_stripe_chunks(self, fastq_medium_gz6):
        with pytest.raises(ValueError):
            pugz_decompress_windowed(fastq_medium_gz6, lambda b: None, stripe_chunks=0)

    def test_ordered_emission(self, fastq_medium, fastq_medium_gz6):
        """Chunks arrive at the sink strictly in stream order."""
        seen = []

        def sink(b):
            seen.append(len(b))

        pugz_decompress_windowed(fastq_medium_gz6, sink, n_chunks=6, stripe_chunks=2)
        total = 0
        reassembled = []
        parts2 = []
        pugz_decompress_windowed(
            fastq_medium_gz6, parts2.append, n_chunks=6, stripe_chunks=2
        )
        assert b"".join(parts2) == fastq_medium


def _members(kind: str) -> bytes:
    _, gz = default_corpora()["fastq-multiblock"]
    if kind == "gz+gz":
        return gz + gz
    return gz + stdlib_gzip.compress(b"", 6, mtime=0) + gz


class TestMultiMember:
    """Every member is decoded, not just the first: each is planned and
    striped on its own, from an empty context."""

    @pytest.mark.parametrize("kind", ["gz+gz", "gz+empty+gz"])
    @pytest.mark.parametrize("stripe", [1, 2, 8])
    def test_iter_pugz(self, kind, stripe):
        data = _members(kind)
        report = WindowedReport()
        out = b"".join(iter_pugz(data, n_chunks=4, stripe_chunks=stripe, report=report))
        assert out == stdlib_gzip.decompress(data)
        assert report.output_size == len(out)

    def test_iter_pugz_process_executor_leaves_no_worker(self):
        data = _members("gz+gz")
        out = b"".join(iter_pugz(data, n_chunks=4, stripe_chunks=2, executor="process"))
        assert out == stdlib_gzip.decompress(data)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("kind", ["gz+gz", "gz+empty+gz"])
    def test_stream_command(self, kind, tmp_path):
        data = _members(kind)
        src = tmp_path / "in.gz"
        src.write_bytes(data)
        out = tmp_path / "out"
        rc = main(["stream", str(src), "-o", str(out), "--chunks", "4", "--stripe", "2"])
        assert rc == 0
        assert out.read_bytes() == stdlib_gzip.decompress(data)

    @pytest.mark.parametrize("kind", ["gz+gz", "gz+empty+gz"])
    def test_pugz_stream(self, kind):
        data = _members(kind)
        with PugzStream(data, n_chunks=4, stripe_chunks=2) as stream:
            assert stream.read() == stdlib_gzip.decompress(data)

    def test_truncated_second_trailer_raises(self):
        data = _members("gz+gz")[:-3]
        with pytest.raises(GzipFormatError) as excinfo:
            b"".join(iter_pugz(data, n_chunks=4, stripe_chunks=2))
        assert excinfo.value.stage == "trailer"
