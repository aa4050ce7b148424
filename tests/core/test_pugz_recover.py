"""Fault-tolerant two-pass decompression (``on_error="recover"``)."""

import gzip as stdlib_gzip
import warnings

import numpy as np
import pytest

from repro.core.pugz import HOLE_BYTE, PugzHole, pugz_decompress, pugz_decompress_payload
from repro.deflate.inflate import inflate
from repro.errors import GzipFormatError, ReproError
from repro.robustness import default_corpora

# A whole-byte corruption at this offset of the deterministic
# ``fastq-multiblock`` corpus lands mid-stream, breaks decoding (raise
# mode errors), and leaves later blocks intact for resync.  The test
# verifies those preconditions instead of trusting the constant.
FAULT_POS = 2325


@pytest.fixture(scope="module")
def corpus():
    return default_corpora()["fastq-multiblock"]


@pytest.fixture(scope="module")
def faulted(corpus):
    _, gz = corpus
    buf = bytearray(gz)
    buf[FAULT_POS] ^= 0xFF
    return bytes(buf)


class TestRecoverMode:
    def test_raise_mode_raises_with_context(self, faulted):
        with pytest.raises(ReproError) as excinfo:
            pugz_decompress(faulted, n_chunks=3)
        assert excinfo.value.bit_offset is not None
        assert excinfo.value.stage is not None

    def test_recover_salvages_prefix_and_tail(self, corpus, faulted):
        plain, gz = corpus
        out, report = pugz_decompress(
            faulted,
            n_chunks=3,
            on_error="recover",
            verify=True,
            return_report=True,
            max_resync_search_bits=40000,
        )
        assert report.holes, "a mid-stream fault must be reported as a hole"
        hole = report.holes[0]
        assert isinstance(hole, PugzHole)
        assert not report.is_complete
        assert "salvaged" in report.chunk_outcomes
        # Block tables stay parallel to the chunks; a salvaged chunk's
        # is empty (it contributes no checkpoints).
        assert len(report.chunk_blocks) == len(report.chunks)
        for outcome, table in zip(report.chunk_outcomes, report.chunk_blocks):
            assert table.shape[1] == 3
            assert (len(table) > 0) == (outcome == "ok")

        # Every byte decoded before the fault comes back exactly: sum
        # the clean stream's block sizes up to the fault bit and demand
        # a byte-exact prefix at least that long.
        clean = inflate(gz, start_bit=80)
        expected_prefix = max(
            (b.out_end for b in clean.blocks if b.end_bit <= 8 * FAULT_POS),
            default=0,
        )
        assert expected_prefix > 0
        assert out[:expected_prefix] == plain[:expected_prefix]

        # The hole is bounded: resync found a later block, so the tail
        # was decoded too (more output than just the prefix).
        assert hole.end_bit < 8 * (len(gz) - 8)
        assert len(out) > expected_prefix
        # CRC cannot match an output with a hole in it.
        assert report.verify_failures

    def test_hole_byte_ranges(self, faulted):
        _, report = pugz_decompress(
            faulted, n_chunks=3, on_error="recover", return_report=True,
            max_resync_search_bits=40000,
        )
        for hole in report.holes:
            assert hole.start_bit < hole.end_bit
            assert hole.start_byte <= hole.end_byte
            assert hole.error
            assert hole.to_dict()["chunk_index"] == hole.chunk_index

    def test_unresolved_positions_render_as_placeholder(self, corpus, faulted):
        plain, _ = corpus
        out, report = pugz_decompress(
            faulted, n_chunks=3, on_error="recover", return_report=True,
            max_resync_search_bits=40000,
        )
        assert report.unresolved_markers > 0
        assert out.count(HOLE_BYTE) >= report.unresolved_markers - plain.count(HOLE_BYTE)

    def test_clean_file_recover_equals_raise(self, corpus):
        plain, gz = corpus
        out, report = pugz_decompress(
            gz, n_chunks=3, on_error="recover", verify=True, return_report=True
        )
        assert out == plain
        assert report.is_complete
        assert report.chunk_outcomes == ["ok"] * len(report.chunks)

    def test_invalid_on_error_value(self, corpus):
        _, gz = corpus
        with pytest.raises(ValueError, match="on_error"):
            pugz_decompress(gz, on_error="explode")
        with pytest.raises(ValueError, match="on_error"):
            pugz_decompress_payload(gz, 80, 8 * len(gz), on_error="explode")


class TestEmptyAndGarbagePayload:
    def test_empty_input(self):
        with pytest.raises(GzipFormatError, match="empty input"):
            pugz_decompress(b"")

    def test_header_only_member(self):
        gz = stdlib_gzip.compress(b"", 6)[:10]  # header, no payload/trailer
        with pytest.raises(GzipFormatError) as excinfo:
            pugz_decompress(gz)
        assert excinfo.value.bit_offset is not None

    def test_empty_payload_region_reports_offset(self):
        with pytest.raises(GzipFormatError, match="empty DEFLATE payload") as excinfo:
            pugz_decompress_payload(b"\x00" * 4, 16, 16)
        assert excinfo.value.bit_offset == 16
        assert excinfo.value.stage == "plan"

    def test_payload_start_past_end(self):
        with pytest.raises(GzipFormatError, match="empty DEFLATE payload"):
            pugz_decompress_payload(b"\x00" * 4, 99, 120)

    def test_pure_garbage_payload(self):
        garbage = bytes((i * 37 + 11) % 256 for i in range(64))
        with pytest.raises(ReproError):
            pugz_decompress_payload(garbage, 0, 8 * len(garbage))

    def test_empty_member_still_decodes(self):
        gz = stdlib_gzip.compress(b"", 6)
        assert pugz_decompress(gz, n_chunks=2) == b""


class TestTrailingGarbage:
    @pytest.fixture(scope="class")
    def with_garbage(self):
        plain = b"@r\nACGT\n+\nIIII\n" * 50
        gz = stdlib_gzip.compress(plain, 6)
        return plain, gz, gz + b"\x01\x02NOT-GZIP\xff"

    def test_raise_mode_reports_byte_offset(self, with_garbage):
        _, gz, dirty = with_garbage
        with pytest.raises(GzipFormatError, match="trailing garbage") as excinfo:
            pugz_decompress(dirty)
        assert str(len(gz)) in str(excinfo.value)
        assert excinfo.value.bit_offset == 8 * len(gz)

    def test_allow_flag_warns_and_stops(self, with_garbage):
        plain, gz, dirty = with_garbage
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out, report = pugz_decompress(
                dirty, allow_trailing_garbage=True, return_report=True
            )
        assert out == plain
        assert report.trailing_garbage_offset == len(gz)
        assert not report.is_complete
        assert any("trailing garbage" in str(w.message) for w in caught)

    def test_recover_mode_implies_allow(self, with_garbage):
        plain, gz, dirty = with_garbage
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out, report = pugz_decompress(
                dirty, on_error="recover", return_report=True
            )
        assert out == plain
        assert report.trailing_garbage_offset == len(gz)

    def test_multi_member_then_garbage(self, with_garbage):
        plain, _, dirty = with_garbage
        two = dirty + dirty  # member + garbage makes the rest garbage too
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out, report = pugz_decompress(
                two, allow_trailing_garbage=True, return_report=True
            )
        assert out == plain
        assert report.members == 1


class TestRecoverVerify:
    def test_trailer_tamper_recorded_not_raised(self):
        plain = b"@r\nACGTACGT\n+\nIIIIIIII\n" * 40
        gz = bytearray(stdlib_gzip.compress(plain, 6))
        gz[-5] ^= 0xFF  # CRC byte
        with pytest.raises(GzipFormatError, match="CRC"):
            pugz_decompress(bytes(gz), verify=True)
        out, report = pugz_decompress(
            bytes(gz), verify=True, on_error="recover", return_report=True
        )
        assert out == plain
        assert len(report.verify_failures) == 1
        assert "CRC" in report.verify_failures[0]
        assert not report.is_complete

    def test_marker_counts_still_reported(self, ):
        plain = np.random.default_rng(3).integers(65, 91, 4000, dtype=np.uint8).tobytes()
        gz = stdlib_gzip.compress(plain, 6)
        out, report = pugz_decompress(gz, n_chunks=2, return_report=True)
        assert out == plain
        assert len(report.chunk_marker_counts) == len(report.chunks)
