"""The two-pass parallel decompressor: exactness above all."""

import gzip as stdlib_gzip
import multiprocessing
import zlib

import numpy as np
import pytest

from repro.core.chunking import plan_chunks
from repro.core.marker import MARKER_BASE, narrow
from repro.cli import main
from repro.core.pugz import (
    PugzReport,
    _pass1_chunk,
    pugz_decompress,
    pugz_decompress_payload,
)
from repro.core.windowed import WindowedReport, iter_pugz
from repro.data import fastq_like, random_dna, synthetic_fastq
from repro.deflate.constants import WINDOW_SIZE
from repro.deflate.deflate import gzip_compress
from repro.deflate.gzipfmt import gzip_wrap, parse_gzip_header
from repro.deflate.inflate import inflate
from repro.errors import GzipFormatError, ReproError
from repro.io import PugzStream
from repro.parallel.executor import ProcessExecutor, SerialExecutor, make_executor
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


class TestFalseChunkStart:
    """A fixed-Huffman stream where the planner's block-start search
    confirms false starts: a header read mid-block falls back into step
    with the real symbols.  The previous chunk then decodes across the
    planned start, and the chunk is decoded again from where it ended."""

    @pytest.fixture(scope="class")
    def fixed_only(self):
        text = synthetic_fastq(150, read_length=100, seed=11, quality_profile="safe")
        co = zlib.compressobj(6, zlib.DEFLATED, -15, 4, zlib.Z_FIXED)
        return text, co.compress(text) + co.flush()

    def test_plan_has_false_starts(self, fixed_only):
        _text, data = fixed_only
        true_starts = {b.start_bit for b in inflate(data).blocks}
        planned = {
            c.start_bit for k in (2, 3, 4) for c in plan_chunks(data, 0, 8 * len(data), k)
        }
        assert planned - true_starts

    @pytest.mark.parametrize("n_chunks", [2, 3, 4])
    def test_output_is_exact(self, fixed_only, n_chunks):
        text, data = fixed_only
        report = PugzReport(n_chunks_requested=n_chunks)
        out = pugz_decompress_payload(data, 0, 8 * len(data), n_chunks=n_chunks, report=report)
        assert out == text
        true_starts = {b.start_bit for b in inflate(data).blocks}
        assert all(c.start_bit in true_starts for c in report.chunks)
        assert report.chunk_outcomes == ["ok"] * len(report.chunks)
        planned = plan_chunks(data, 0, 8 * len(data), n_chunks)
        restarted = [d.index for d in report.chunk_details if d.degraded_to == "restart"]
        assert restarted == [c.index for c in planned if c.start_bit not in true_starts]

    # Streamed output runs the same driver a stripe at a time: the
    # restart must hold at stripe seams too, for every stripe size.
    STRIPES = [(k, s) for k in (2, 3, 4) for s in range(1, k + 1)]

    @pytest.fixture(scope="class")
    def fixed_only_gz(self, fixed_only):
        text, data = fixed_only
        return text, gzip_wrap(data, text)

    @pytest.mark.parametrize("n_chunks,stripe", STRIPES)
    def test_iter_pugz_is_exact(self, fixed_only_gz, n_chunks, stripe):
        text, gz = fixed_only_gz
        report = WindowedReport()
        out = b"".join(iter_pugz(gz, n_chunks=n_chunks, stripe_chunks=stripe, report=report))
        assert out == text
        _, whole = pugz_decompress(gz, n_chunks=n_chunks, return_report=True)

        def restarted(r):
            return [d.index for d in r.chunk_details if d.degraded_to == "restart"]

        assert restarted(report.pugz) == restarted(whole)

    @pytest.mark.parametrize("n_chunks,stripe", STRIPES)
    def test_pugz_stream_is_exact(self, fixed_only_gz, n_chunks, stripe):
        text, gz = fixed_only_gz
        with PugzStream(gz, n_chunks=n_chunks, stripe_chunks=stripe) as stream:
            assert stream.read() == text

    @pytest.mark.parametrize("n_chunks,stripe", STRIPES)
    def test_stream_command_is_exact(self, fixed_only_gz, n_chunks, stripe, tmp_path):
        text, gz = fixed_only_gz
        src, out = tmp_path / "in.gz", tmp_path / "out"
        src.write_bytes(gz)
        argv = ["stream", str(src), "-o", str(out), "--chunks", str(n_chunks)]
        assert main(argv + ["--stripe", str(stripe)]) == 0
        assert out.read_bytes() == text


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
        with make_executor(kind, 2) as ex:
            out, report = pugz_decompress(
                gz, n_chunks=2, executor=ex, supervision=policy, return_report=True,
            )
        assert out == b"".join(parts)
        assert report.pass2_seconds > 0


class _FailOneChunk(SerialExecutor):
    """Serial executor whose pass 1 reports a data error for chunk 1,
    so the engine salvages that chunk in-process (``int32`` pieces)
    between pass-1 results that arrived narrow."""

    def map(self, fn, items):
        packed = super().map(fn, items)
        error = ReproError("injected", chunk_index=1, stage="pass1")
        packed[1] = (False, error, packed[1][2])
        return packed


class TestPass1Transport:
    """Pass-1 symbols cross the process boundary at their natural
    width: ``uint8`` without markers, ``uint16`` with them."""

    def _jobs(self, gz, n_chunks):
        start, *_ = parse_gzip_header(gz, 0)
        chunks = plan_chunks(gz, 8 * start, 8 * (len(gz) - 8), n_chunks)
        assert len(chunks) == n_chunks
        return [(gz, c.start_bit, c.stop_bit, c.index, None, None, None) for c in chunks]

    def test_widths(self, fastq_medium, fastq_medium_gz6):
        first, second = (_pass1_chunk(job) for job in self._jobs(fastq_medium_gz6, 2))
        # Chunk 0 starts at the stream start: marker-free, one byte each.
        assert first[1].dtype == np.uint8
        # Chunk 1 references the unknown context: markers need 16 bits.
        assert second[1].dtype == np.uint16
        assert int(second[1].max()) >= MARKER_BASE
        assert len(first[1]) + len(second[1]) == len(fastq_medium)

    def test_sole_chunk_is_bytes(self, fastq_small):
        gz = stdlib_gzip.compress(fastq_small, 6)
        (job,) = self._jobs(gz, 1)
        result = _pass1_chunk(job)
        assert result[1].dtype == np.uint8
        assert result[1].tobytes() == fastq_small

    def test_narrow_bounds(self):
        assert narrow(np.array([0, 255], np.int32)).dtype == np.uint8
        top = narrow(np.array([0, MARKER_BASE + WINDOW_SIZE - 1], np.int32))
        assert top.dtype == np.uint16 and int(top[-1]) == 33023
        assert narrow(np.zeros(0, np.int32)).dtype == np.uint8

    def test_multi_member_matches_stdlib(self, three_members):
        _, gz = three_members
        with ProcessExecutor(2) as ex:
            assert pugz_decompress(gz, n_chunks=3, executor=ex) == stdlib_gzip.decompress(gz)

    def test_salvaged_int32_pieces_mix_with_narrow_chunks(self, fastq_medium, fastq_medium_gz6):
        out, report = pugz_decompress(
            fastq_medium_gz6, n_chunks=3, executor=_FailOneChunk(),
            on_error="recover", return_report=True,
        )
        assert report.chunk_outcomes == ["ok", "salvaged", "ok"]
        assert out == stdlib_gzip.decompress(fastq_medium_gz6) == fastq_medium
        assert report.is_complete

    def test_process_call_leaves_no_worker(self, fastq_small):
        gz = stdlib_gzip.compress(fastq_small * 3, 6)
        assert pugz_decompress(gz, n_chunks=2, executor="process") == fastq_small * 3
        assert multiprocessing.active_children() == []


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
        assert len(report.chunk_blocks) == n
        assert sum(report.chunk_output_sizes) == sum(map(len, parts))
        assert [c.index for c in report.chunks] == [
            i for count in per_member for i in range(count)
        ]

    @pytest.mark.parametrize("n_chunks", [1, 4])
    def test_chunk_blocks_tile_each_chunk(self, fastq_medium, fastq_medium_gz6, n_chunks):
        """Pass 1's block tables: one int64 row per DEFLATE block, in
        chunk-relative output coordinates, tiling each chunk's output
        from its first bit and matching the sequential decode."""
        _, report = pugz_decompress(fastq_medium_gz6, n_chunks=n_chunks, return_report=True)
        assert len(report.chunk_blocks) == len(report.chunks)
        rows = []
        rel = 0
        for chunk, size, table in zip(
            report.chunks, report.chunk_output_sizes, report.chunk_blocks
        ):
            assert table.dtype == np.int64 and table.shape[1] == 3 and len(table)
            assert table[0, 0] == chunk.start_bit
            assert table[0, 1] == 0 and table[-1, 2] == size
            assert (table[1:, 1] == table[:-1, 2]).all()
            rows += [(s, o + rel, e + rel) for s, o, e in table.tolist()]
            rel += size
        start, *_ = parse_gzip_header(fastq_medium_gz6)
        clean = inflate(fastq_medium_gz6, start_bit=8 * start)
        assert rows == [(b.start_bit, b.out_start, b.out_end) for b in clean.blocks]

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
