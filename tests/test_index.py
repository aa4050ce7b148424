"""Checkpoint index (zran-style) for gzip random access."""

import numpy as np
import pytest

from repro.data import gzip_zlib
from repro.errors import GzipFormatError, RandomAccessError
from repro.index import Checkpoint, GzipIndex, build_index


@pytest.fixture(scope="module")
def indexed(fastq_medium):
    gz = gzip_zlib(fastq_medium, 6)
    idx = build_index(gz, span=150_000)
    return fastq_medium, gz, idx


class TestBuild:
    def test_checkpoint_density(self, indexed):
        text, gz, idx = indexed
        assert idx.usize == len(text)
        # One checkpoint per <= ~2 spans (block granularity).
        assert len(idx.checkpoints) >= len(text) // (2 * idx.span)

    def test_first_checkpoint_is_stream_start(self, indexed):
        _, gz, idx = indexed
        cp = idx.checkpoints[0]
        assert cp.uoffset == 0
        assert cp.window == b""

    def test_checkpoints_sorted_with_windows(self, indexed):
        """A checkpoint stores the preceding output at exactly the
        window positions its mask marks — a few KiB of the 32 KiB."""
        text, _, idx = indexed
        for prev, cur in zip(idx.checkpoints, idx.checkpoints[1:]):
            assert cur.uoffset > prev.uoffset
            pos = np.flatnonzero(np.unpackbits(np.frombuffer(cur.mask, np.uint8)))
            assert cur.window == bytes(text[cur.uoffset - 32768 + p] for p in pos)
            assert 0 < len(cur.window) < 32768

    def test_invalid_span(self, indexed):
        _, gz, _ = indexed
        with pytest.raises(ValueError):
            build_index(gz, span=0)


class TestReadAt:
    def test_exact_extraction_everywhere(self, indexed):
        text, gz, idx = indexed
        for off in (0, 1, 50_000, 333_333, len(text) - 200):
            assert idx.read_at(gz, off, 150) == text[off : off + 150]

    def test_extraction_spanning_checkpoints(self, indexed):
        text, gz, idx = indexed
        cp = idx.checkpoints[1]
        off = cp.uoffset - 100
        assert idx.read_at(gz, off, 300) == text[off : off + 300]

    def test_nearest_selection(self, indexed):
        _, _, idx = indexed
        cp = idx.nearest(idx.checkpoints[2].uoffset + 1)
        assert cp is idx.checkpoints[2]

    def test_offset_out_of_range(self, indexed):
        _, gz, idx = indexed
        with pytest.raises(RandomAccessError):
            idx.read_at(gz, idx.usize + 1, 10)

    def test_negative_size(self, indexed):
        _, gz, idx = indexed
        with pytest.raises(ValueError):
            idx.read_at(gz, 0, -1)


class TestSerialisation:
    def test_round_trip(self, indexed):
        text, gz, idx = indexed
        blob = idx.to_bytes()
        idx2 = GzipIndex.from_bytes(blob)
        assert idx2.usize == idx.usize
        assert len(idx2.checkpoints) == len(idx.checkpoints)
        assert idx2.read_at(gz, 200_000, 99) == text[200_000 : 200_099]

    def test_windows_compressed_in_blob(self, indexed):
        _, _, idx = indexed
        raw_size = sum(len(cp.window) for cp in idx.checkpoints)
        assert len(idx.to_bytes()) < raw_size  # compression pays

    def test_bad_magic(self):
        with pytest.raises(GzipFormatError):
            GzipIndex.from_bytes(b"NOTANIDX" + b"\x00" * 40)


class TestComparisonWithProbing:
    def test_indexed_access_needs_no_probing(self, indexed):
        """The related-work trade-off: with an index, access starts at
        an exact block boundary with a known window — no search, no
        undetermined characters, any compression level."""
        text, gz, idx = indexed
        out = idx.read_at(gz, 400_000, 1000)
        assert out == text[400_000:401_000]
        assert b"?" not in out or b"?" in text[400_000:401_000]


class TestMultiMember:
    """build_index walks *every* member — the bug this sweep fixed."""

    @pytest.fixture(scope="module")
    def members(self, fastq_medium):
        import gzip as stdlib_gzip

        third = len(fastq_medium) // 3
        parts = [
            fastq_medium[:third],
            fastq_medium[third : 2 * third],
            fastq_medium[2 * third :],
        ]
        gz = b"".join(stdlib_gzip.compress(p, 6) for p in parts)
        return fastq_medium, gz, build_index(gz, span=150_000)

    def test_usize_covers_all_members(self, members):
        text, _, idx = members
        assert idx.usize == len(text)
        assert idx.members == 3

    def test_member_checkpoints_have_empty_windows(self, members):
        text, _, idx = members
        member_cps = [cp for cp in idx.checkpoints if cp.kind == "member"]
        third = len(text) // 3
        assert [cp.uoffset for cp in member_cps] == [0, third, 2 * third]
        assert all(cp.window == b"" for cp in member_cps)

    def test_uoffset_continuous_across_seams(self, members):
        text, gz, idx = members
        third = len(text) // 3
        for off in (third - 1, third, third + 1, 2 * third - 1, 2 * third):
            assert idx.read_at(gz, off, 100) == text[off : off + 100], off

    def test_trailing_garbage_rejected(self, fastq_small):
        import gzip as stdlib_gzip

        gz = stdlib_gzip.compress(fastq_small, 6) + b"junk"
        with pytest.raises(GzipFormatError):
            build_index(gz, span=100_000)


class TestNearest:
    def test_pre_first_checkpoint_structured_error(self):
        cp = Checkpoint(bit_offset=800, uoffset=1000, window=b"w" * 100)
        idx = GzipIndex(checkpoints=[cp], usize=5000, span=1000)
        with pytest.raises(RandomAccessError) as exc:
            idx.nearest(500)
        assert exc.value.stage == "zran"

    def test_empty_index_structured_error(self):
        idx = GzipIndex(checkpoints=[], usize=0, span=1000)
        with pytest.raises(RandomAccessError) as exc:
            idx.nearest(0)
        assert exc.value.stage == "zran"

    def test_bisect_picks_floor_checkpoint(self):
        cps = [
            Checkpoint(bit_offset=i * 100, uoffset=i * 1000, window=b"w")
            for i in range(200)
        ]
        idx = GzipIndex(checkpoints=cps, usize=200_000, span=1000)
        assert idx.nearest(0).uoffset == 0
        assert idx.nearest(999).uoffset == 0
        assert idx.nearest(1000).uoffset == 1000
        assert idx.nearest(150_500).uoffset == 150_000
        assert idx.nearest(199_999).uoffset == 199_000


class TestSources:
    """build_index / read_at accept bytes, a path, or a file object."""

    def test_build_and_read_from_path_and_file(self, tmp_path, indexed):
        text, gz, from_bytes_idx = indexed
        path = tmp_path / "reads.gz"
        path.write_bytes(gz)

        from_path_idx = build_index(str(path), span=150_000)
        assert from_path_idx.to_bytes() == from_bytes_idx.to_bytes()

        with open(path, "rb") as fh:
            from_file_idx = build_index(fh, span=150_000)
        assert from_file_idx.to_bytes() == from_bytes_idx.to_bytes()

        expect = text[300_000:300_512]
        assert from_bytes_idx.read_at(str(path), 300_000, 512) == expect
        with open(path, "rb") as fh:
            assert from_bytes_idx.read_at(fh, 300_000, 512) == expect


class TestFormatCompat:
    def test_v1_blob_still_loads(self, indexed):
        """A pre-sweep single-member v1 blob parses and serves reads."""
        import struct
        import zlib

        text, gz, idx = indexed
        blob = bytearray()
        blob += b"RPZIDX1\x00"
        blob += struct.pack("<QQI", idx.usize, idx.span, len(idx.checkpoints))
        for cp in idx.checkpoints:
            cw = zlib.compress(cp.window, 6)
            blob += struct.pack("<QQI", cp.bit_offset, cp.uoffset, len(cw))
            blob += cw
        old = GzipIndex.from_bytes(bytes(blob))
        assert old.usize == idx.usize
        assert [c.uoffset for c in old.checkpoints] == [
            c.uoffset for c in idx.checkpoints
        ]
        assert old.read_at(gz, 123_456, 789) == text[123_456 : 123_456 + 789]

    def test_v2_round_trip_preserves_kind_and_csize(self, indexed):
        _, gz, idx = indexed
        again = GzipIndex.from_bytes(idx.to_bytes())
        assert again.csize == idx.csize == len(gz)
        assert [c.kind for c in again.checkpoints] == [
            c.kind for c in idx.checkpoints
        ]
