"""The two-pass parallel decompressor: exactness above all."""

import gzip as stdlib_gzip

import pytest

from repro.core.pugz import PugzReport, pugz_decompress, pugz_decompress_payload
from repro.data import fastq_like, random_dna, synthetic_fastq
from repro.deflate.deflate import gzip_compress
from repro.deflate.gzipfmt import parse_gzip_header
from repro.errors import GzipFormatError
from repro.parallel.executor import SerialExecutor, make_executor
from repro.parallel.supervision import SupervisionPolicy


class TestExactness:
    @pytest.mark.parametrize("n_chunks", [1, 2, 3, 4, 7])
    def test_chunk_counts(self, n_chunks, fastq_medium, fastq_medium_gz6):
        out = pugz_decompress(fastq_medium_gz6, n_chunks=n_chunks)
        assert out == fastq_medium

    @pytest.mark.parametrize("level", [1, 6, 9])
    def test_compression_levels(self, level, fastq_medium):
        gz = stdlib_gzip.compress(fastq_medium, level, mtime=0)
        assert pugz_decompress(gz, n_chunks=3) == fastq_medium

    def test_own_compressor_output(self, fastq_small):
        gz = gzip_compress(fastq_small * 4, 6)
        assert pugz_decompress(gz, n_chunks=3) == fastq_small * 4

    def test_dna_only_file(self):
        dna = random_dna(600_000, seed=77)
        gz = stdlib_gzip.compress(dna, 6)
        assert pugz_decompress(gz, n_chunks=4) == dna

    def test_fastq_like_file(self, fastq_like_1m):
        gz = stdlib_gzip.compress(fastq_like_1m, 6)
        assert pugz_decompress(gz, n_chunks=3) == fastq_like_1m

    def test_general_ascii_text(self, mixed_text):
        gz = stdlib_gzip.compress(mixed_text, 6)
        assert pugz_decompress(gz, n_chunks=3) == mixed_text

    def test_tiny_file(self):
        gz = stdlib_gzip.compress(b"tiny", 6)
        assert pugz_decompress(gz, n_chunks=4) == b"tiny"

    def test_empty_file(self):
        gz = stdlib_gzip.compress(b"", 6)
        assert pugz_decompress(gz, n_chunks=2) == b""

    def test_matches_stdlib_on_weak_persona(self):
        text = synthetic_fastq(1500, read_length=100, seed=5, quality_profile="safe")
        gz = gzip_compress(text, 1, min_match=8)
        assert pugz_decompress(gz, n_chunks=3) == stdlib_gzip.decompress(gz) == text


class TestExecutors:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_executor_kinds(self, executor, fastq_medium, fastq_medium_gz6):
        assert pugz_decompress(fastq_medium_gz6, n_chunks=3, executor=executor) == fastq_medium

    def test_process_executor(self, fastq_small):
        text = fastq_small * 3
        gz = stdlib_gzip.compress(text, 6)
        assert pugz_decompress(gz, n_chunks=2, executor="process") == text

    def test_unknown_executor(self, fastq_medium_gz6):
        with pytest.raises(ValueError):
            pugz_decompress(fastq_medium_gz6, executor="quantum")


class TestVerification:
    def test_crc_verify_accepts_good_file(self, fastq_medium, fastq_medium_gz6):
        assert pugz_decompress(fastq_medium_gz6, n_chunks=3, verify=True) == fastq_medium

    def test_crc_verify_rejects_corrupt_trailer(self, fastq_medium_gz6):
        bad = bytearray(fastq_medium_gz6)
        bad[-6] ^= 0xFF  # CRC field
        with pytest.raises(GzipFormatError, match="CRC"):
            pugz_decompress(bytes(bad), n_chunks=2, verify=True)

    def test_isize_mismatch(self, fastq_medium_gz6):
        bad = bytearray(fastq_medium_gz6)
        bad[-1] ^= 0xFF
        with pytest.raises(GzipFormatError, match="ISIZE"):
            pugz_decompress(bytes(bad), n_chunks=2, verify=True)


class TestMultiMember:
    def test_two_members(self, fastq_medium):
        a, b = fastq_medium[:400_000], fastq_medium[400_000:]
        gz = stdlib_gzip.compress(a, 6) + stdlib_gzip.compress(b, 9)
        out, report = pugz_decompress(gz, n_chunks=3, return_report=True)
        assert out == fastq_medium
        assert report.members == 2

    def test_many_small_members(self, fastq_small):
        parts = [fastq_small[i : i + 40_000] for i in range(0, len(fastq_small), 40_000)]
        gz = b"".join(stdlib_gzip.compress(p, 6) for p in parts)
        assert pugz_decompress(gz, n_chunks=2, verify=True) == fastq_small


@pytest.fixture(scope="module")
def three_members(fastq_medium):
    third = len(fastq_medium) // 3
    parts = [fastq_medium[:third], fastq_medium[third : 2 * third], fastq_medium[2 * third :]]
    return parts, b"".join(stdlib_gzip.compress(p, 6, mtime=0) for p in parts)


class _CountingExecutor(SerialExecutor):
    """Serial executor that counts its ``map`` calls (``map_outcomes``
    without a policy goes through ``map``)."""

    def __init__(self) -> None:
        self.maps = 0

    def map(self, fn, items):
        self.maps += 1
        return super().map(fn, items)


class TestPass2Placement:
    """Pass 2 translates in the calling process: the pool only ever
    sees pass 1."""

    def test_one_executor_map_per_member(self, three_members):
        parts, gz = three_members
        ex = _CountingExecutor()
        out = pugz_decompress(gz, n_chunks=3, executor=ex)
        assert out == b"".join(parts)
        assert ex.maps == len(parts)

    @pytest.mark.parametrize("kind", ["serial", "thread", "process"])
    @pytest.mark.parametrize("supervised", [False, True])
    def test_output_identical_across_executors(self, three_members, kind, supervised):
        parts, gz = three_members
        policy = SupervisionPolicy(deadline_s=60.0, max_retries=1) if supervised else None
        out, report = pugz_decompress(
            gz, n_chunks=2, executor=make_executor(kind, 2), supervision=policy,
            return_report=True,
        )
        assert out == b"".join(parts)
        assert report.pass2_seconds > 0


class TestReport:
    def test_report_shape(self, fastq_medium, fastq_medium_gz6):
        out, report = pugz_decompress(fastq_medium_gz6, n_chunks=4, return_report=True)
        assert report.output_size == len(fastq_medium)
        assert len(report.chunk_output_sizes) == len(report.chunks)
        assert sum(report.chunk_output_sizes) == len(fastq_medium)
        assert report.chunk_marker_counts[0] == 0
        if len(report.chunks) > 1:
            assert any(c > 0 for c in report.chunk_marker_counts[1:])
        assert report.total_seconds > 0

    def test_chunk_tables_cover_every_member(self, three_members):
        parts, gz = three_members
        # Chunks per member, each from a fresh report (planning spans
        # the rest of the file, so members are not planned standalone).
        per_member = []
        offset = 0
        for _ in parts:
            start, *_ = parse_gzip_header(gz, offset)
            rep = PugzReport(n_chunks_requested=3)
            pugz_decompress_payload(gz, 8 * start, 8 * (len(gz) - 8), 3, report=rep)
            per_member.append(len(rep.chunks))
            offset = (rep.end_bit + 7) // 8 + 8
        _, report = pugz_decompress(gz, n_chunks=3, return_report=True)
        n = sum(per_member)
        assert n > len(parts)  # some member was really chunked
        assert len(report.chunks) == n
        assert len(report.chunk_outcomes) == len(report.chunk_details) == n
        assert len(report.chunk_output_sizes) == len(report.chunk_marker_counts) == n
        assert sum(report.chunk_output_sizes) == sum(map(len, parts))
        assert [c.index for c in report.chunks] == [
            i for count in per_member for i in range(count)
        ]

    def test_report_end_bit_is_payload_end(self, fastq_medium_gz6):
        out, report = pugz_decompress(fastq_medium_gz6, n_chunks=2, return_report=True)
        payload_end = (report.end_bit + 7) // 8
        assert payload_end == len(fastq_medium_gz6) - 8


class TestPayloadLevel:
    def test_raw_payload_api(self, fastq_medium):
        import zlib

        co = zlib.compressobj(6, zlib.DEFLATED, -15)
        raw = co.compress(fastq_medium) + co.flush()
        out = pugz_decompress_payload(raw, 0, 8 * len(raw), n_chunks=3)
        assert out == fastq_medium

    def test_payload_inside_container(self, fastq_medium, fastq_medium_gz6):
        start, *_ = parse_gzip_header(fastq_medium_gz6)
        out = pugz_decompress_payload(
            fastq_medium_gz6, 8 * start, 8 * (len(fastq_medium_gz6) - 8), n_chunks=2
        )
        assert out == fastq_medium
