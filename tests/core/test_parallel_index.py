"""Parallel index construction (pugz x ref [11] synthesis)."""

import gzip as stdlib_gzip

import pytest

from repro.core.parallel_index import pugz_build_index
from repro.data import gzip_zlib
from repro.errors import GzipFormatError
from repro.index.zran import build_index

SPAN = 65536


class TestPugzBuildIndex:
    @pytest.fixture(scope="class")
    def built(self, fastq_medium):
        gz = gzip_zlib(fastq_medium, 6)
        out, idx = pugz_build_index(gz, n_chunks=5, span=SPAN)
        return fastq_medium, gz, out, idx

    def test_data_exact(self, built):
        text, gz, out, idx = built
        assert out == text

    def test_index_addresses_everything(self, built):
        text, gz, out, idx = built
        assert idx.usize == len(text)
        for off in (0, 1000, len(text) // 2, len(text) - 500):
            assert idx.read_at(gz, off, 200) == text[off : off + 200]

    def test_checkpoint_windows_are_preceding_output(self, built):
        text, gz, out, idx = built
        assert len(idx.checkpoints) >= 2
        for cp in idx.checkpoints[1:]:
            assert len(cp.window) == 32768
            assert cp.window == text[cp.uoffset - 32768 : cp.uoffset]

    def test_serialisation_round_trip(self, built):
        from repro.index import GzipIndex

        text, gz, out, idx = built
        idx2 = GzipIndex.from_bytes(idx.to_bytes())
        off = len(text) * 2 // 3
        assert idx2.read_at(gz, off, 123) == text[off : off + 123]

    def test_multi_member(self, fastq_small):
        from repro.index.zran import CHECKPOINT_MEMBER

        gz = stdlib_gzip.compress(fastq_small[:1000]) + stdlib_gzip.compress(
            fastq_small[1000:]
        )
        out, idx = pugz_build_index(gz, n_chunks=2)
        assert out == fastq_small
        assert idx.usize == len(fastq_small)
        members = [cp for cp in idx.checkpoints if cp.kind == CHECKPOINT_MEMBER]
        assert len(members) == 2
        assert members[1].uoffset == 1000
        # A read spanning the member seam must stitch correctly.
        assert idx.read_at(gz, 900, 200) == fastq_small[900:1100]


@pytest.fixture(scope="module")
def span_inputs(fastq_medium):
    """Single-member and three-member (empty middle member) files."""
    third = len(fastq_medium) // 3
    multi = b"".join(
        stdlib_gzip.compress(part, 6, mtime=0)
        for part in (fastq_medium[:third], b"", fastq_medium[third:])
    )
    return fastq_medium, {"single": gzip_zlib(fastq_medium, 6), "multi": multi}


class TestSpanRule:
    """The cold-start index obeys the sequential builder's span rule:
    same checkpoints, bit offsets, uoffsets and windows, for any chunk
    count."""

    @pytest.fixture(scope="class")
    def sequential(self, span_inputs):
        _, files = span_inputs
        cache = {}

        def get(shape, span):
            if (shape, span) not in cache:
                cache[shape, span] = build_index(files[shape], span=span)
            return cache[shape, span]

        return get

    @pytest.mark.parametrize("shape", ["single", "multi"])
    @pytest.mark.parametrize("span", [8 * 1024, 64 * 1024, 1 << 20])
    @pytest.mark.parametrize("n_chunks", [1, 2, 5, 8])
    def test_equals_sequential_build(self, span_inputs, sequential, shape, span, n_chunks):
        text, files = span_inputs
        out, idx = pugz_build_index(files[shape], n_chunks=n_chunks, span=span)
        ref = sequential(shape, span)
        assert out == text
        assert [
            (cp.kind, cp.bit_offset, cp.uoffset) for cp in idx.checkpoints
        ] == [(cp.kind, cp.bit_offset, cp.uoffset) for cp in ref.checkpoints]
        assert idx == ref
        assert idx.span == span

    def test_span_must_be_positive(self, span_inputs):
        _, files = span_inputs
        with pytest.raises(ValueError):
            pugz_build_index(files["single"], span=0)


@pytest.fixture(scope="module")
def two_members(fastq_medium):
    half = len(fastq_medium) // 2
    first = stdlib_gzip.compress(fastq_medium[:half], 6, mtime=0)
    second = stdlib_gzip.compress(fastq_medium[half:], 6, mtime=0)
    return first, second


def _sequential(gz):
    return build_index(gz, span=SPAN)


def _parallel(gz):
    return pugz_build_index(gz, n_chunks=3, span=SPAN)[1]


class TestTrailerChecks:
    """Both index builders refuse a member whose CRC32 or ISIZE
    disagrees with its output: an index sealed over such a file would
    serve bytes its own trailer says are wrong."""

    @pytest.mark.parametrize("builder", [_sequential, _parallel])
    @pytest.mark.parametrize("field,offset", [("CRC", 8), ("ISIZE", 4)])
    def test_one_flipped_bit_raises(self, two_members, builder, field, offset):
        first, second = two_members
        bad = bytearray(first)
        bad[len(first) - offset] ^= 0x01  # the first member's trailer
        with pytest.raises(GzipFormatError, match=field) as excinfo:
            builder(bytes(bad) + second)
        assert excinfo.value.stage == "trailer"

    @pytest.mark.parametrize("builder", [_sequential, _parallel])
    def test_clean_file_builds(self, two_members, builder):
        gz = b"".join(two_members)
        assert builder(gz).usize == len(stdlib_gzip.decompress(gz))
