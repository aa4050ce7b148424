"""Memory-bounded (striped) parallel decompression."""

import gzip as stdlib_gzip
import multiprocessing
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.core.pugz import PugzReport, iter_pugz, pugz_decompress
from repro.data import gzip_zlib
from repro.errors import GzipFormatError, ReproError
from repro.io import PugzStream
from repro.robustness import default_corpora


def _stream(gz: bytes, n_chunks: int, **kw) -> tuple[list[bytes], PugzReport]:
    """Run :func:`iter_pugz` to its end: the pieces and the report."""
    report = PugzReport(n_chunks_requested=n_chunks)
    return list(iter_pugz(gz, n_chunks=n_chunks, report=report, **kw)), report


class TestExactness:
    @pytest.mark.parametrize("n_chunks,stripe", [(4, 1), (4, 2), (8, 3), (6, 6), (5, 10)])
    def test_stripe_geometries(self, n_chunks, stripe, fastq_medium, fastq_medium_gz6):
        parts, report = _stream(fastq_medium_gz6, n_chunks=n_chunks, stripe_chunks=stripe)
        assert b"".join(parts) == fastq_medium
        assert report.output_size == len(fastq_medium)

    def test_single_chunk(self, fastq_medium, fastq_medium_gz6):
        parts, _ = _stream(fastq_medium_gz6, n_chunks=1)
        assert b"".join(parts) == fastq_medium

    @pytest.mark.parametrize("level", [1, 9])
    def test_other_levels(self, level, fastq_medium):
        gz = gzip_zlib(fastq_medium, level)
        parts, _ = _stream(gz, n_chunks=4, stripe_chunks=2)
        assert b"".join(parts) == fastq_medium


class TestMemoryBound:
    def test_peak_below_total(self, fastq_medium, fastq_medium_gz6):
        _, report = _stream(fastq_medium_gz6, n_chunks=8, stripe_chunks=2)
        if len(report.chunks) >= 6:
            assert report.peak_stripe_symbols < 0.6 * len(fastq_medium)

    def test_smaller_stripes_smaller_peak(self, fastq_medium, fastq_medium_gz6):
        peaks = {}
        for stripe in (1, 4):
            _, report = _stream(fastq_medium_gz6, n_chunks=8, stripe_chunks=stripe)
            peaks[stripe] = report.peak_stripe_symbols
        assert peaks[1] <= peaks[4]

    def test_stripe_count_reported(self, fastq_medium_gz6):
        _, report = _stream(fastq_medium_gz6, n_chunks=6, stripe_chunks=2)
        assert report.stripes == -(-len(report.chunks) // 2)


class TestValidation:
    def test_invalid_stripe_chunks(self, fastq_medium_gz6):
        with pytest.raises(ValueError):
            next(iter_pugz(fastq_medium_gz6, stripe_chunks=0))

    def test_ordered_emission(self, fastq_medium, fastq_medium_gz6):
        """Pieces are yielded strictly in stream order."""
        parts, _ = _stream(fastq_medium_gz6, n_chunks=6, stripe_chunks=2)
        assert len(parts) > 1
        assert b"".join(parts) == fastq_medium


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
        parts, report = _stream(data, n_chunks=4, stripe_chunks=stripe)
        out = b"".join(parts)
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


class TestPeakShrinksWithStripe:
    def test_peak_shrinks_with_stripe(self, fastq_medium, fastq_medium_gz6):
        peaks = []
        for stripe in (8, 4, 2, 1):
            _, report = _stream(fastq_medium_gz6, n_chunks=8, stripe_chunks=stripe)
            assert len(report.chunks) >= 6
            peaks.append(report.peak_stripe_symbols)
        assert peaks[0] == len(fastq_medium)  # one stripe holds every symbol
        assert peaks[1] < len(fastq_medium)
        assert all(a > b for a, b in zip(peaks, peaks[1:]))


def _flipped(field: str) -> bytes:
    """Two members with the *first* member's CRC or ISIZE flipped."""
    _, gz = default_corpora()["fastq-multiblock"]
    bad = bytearray(gz)
    bad[-6 if field == "crc" else -1] ^= 0xFF
    return bytes(bad) + gz


def _trailer_error(surface: str, data: bytes, tmp_path) -> GzipFormatError:
    with pytest.raises(GzipFormatError) as excinfo:
        if surface == "iter_pugz":
            b"".join(iter_pugz(data, n_chunks=4, stripe_chunks=2))
        elif surface == "PugzStream":
            with PugzStream(data, n_chunks=4, stripe_chunks=2) as stream:
                stream.read()
        elif surface == "stream":
            src = tmp_path / "in.gz"
            src.write_bytes(data)
            main(["stream", str(src), "-o", str(tmp_path / "out"), "--stripe", "2"])
        else:
            pugz_decompress(data, n_chunks=4, verify=True)
    return excinfo.value


class TestTrailerChecked:
    """Streamed output is checked against every member's trailer, on
    the same chained-CRC path as ``pugz_decompress(verify=True)``."""

    @pytest.mark.parametrize("field,name", [("crc", "CRC"), ("isize", "ISIZE")])
    @pytest.mark.parametrize("surface", ["iter_pugz", "PugzStream", "stream", "pugz"])
    def test_flipped_trailer_rejected(self, field, name, surface, tmp_path):
        err = _trailer_error(surface, _flipped(field), tmp_path)
        assert err.stage == "trailer"
        assert name in err.message

    @pytest.mark.parametrize("field", ["crc", "isize"])
    def test_stream_command_exits_nonzero(self, field, tmp_path):
        src = tmp_path / "in.gz"
        src.write_bytes(_flipped(field))
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "repro", "stream", str(src), "-o", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert result.returncode != 0
        assert "GzipFormatError" in result.stderr and "trailer" in result.stderr

    # Byte 2348 makes chunk 0 reference data before the stream start;
    # byte 6713 breaks a block header.
    @pytest.mark.parametrize("offset", [2348, 6713])
    @pytest.mark.parametrize("stripe", [1, 2, 4])
    def test_smashed_byte_raises_as_pugz(self, offset, stripe):
        _, gz = default_corpora()["fastq-multiblock"]
        bad = bytearray(gz)
        bad[offset] ^= 0xFF
        bad = bytes(bad)
        with pytest.raises(ReproError) as whole:
            pugz_decompress(bad, n_chunks=4, verify=True)
        with pytest.raises(ReproError) as streamed:
            b"".join(iter_pugz(bad, n_chunks=4, stripe_chunks=stripe))
        got, want = streamed.value, whole.value
        assert (type(got), got.stage, got.bit_offset) == (type(want), want.stage, want.bit_offset)
