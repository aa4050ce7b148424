"""BGZF blocked-gzip format: framing, random access, parallel decode."""

import gzip as stdlib_gzip
import io
import pickle
import struct

import pytest

from repro.bgzf import (
    BGZF_EOF,
    MAX_BLOCK_INPUT,
    BgzfReader,
    bgzf_compress,
    bgzf_decompress,
    bgzf_decompress_parallel,
    make_virtual_offset,
    read_block,
    scan_blocks,
    split_virtual_offset,
)
from repro.errors import GzipFormatError, RandomAccessError
from repro.io.source import ByteSource
from repro.parallel.executor import SerialExecutor


@pytest.fixture(scope="module")
def bgzf_file(fastq_small):
    return fastq_small, bgzf_compress(fastq_small, 6)


class TestFormat:
    def test_round_trip(self, bgzf_file):
        text, bg = bgzf_file
        assert bgzf_decompress(bg) == text

    def test_stdlib_reads_bgzf(self, bgzf_file):
        """BGZF is plain multi-member gzip to any gzip reader."""
        text, bg = bgzf_file
        assert stdlib_gzip.decompress(bg) == text

    def test_eof_sentinel_present(self, bgzf_file):
        _, bg = bgzf_file
        assert bg.endswith(BGZF_EOF)

    def test_eof_sentinel_is_itself_valid_bgzf(self):
        blocks = scan_blocks(BGZF_EOF)
        assert len(blocks) == 1 and blocks[0].is_eof

    def test_empty_input(self):
        bg = bgzf_compress(b"")
        assert bg == BGZF_EOF
        assert bgzf_decompress(bg) == b""

    def test_block_size_limits(self, fastq_small):
        bg = bgzf_compress(fastq_small, 6, block_input=1000)
        blocks = scan_blocks(bg)
        assert all(b.usize <= 1000 for b in blocks)
        assert all(b.csize <= 65536 for b in blocks)

    def test_invalid_block_input(self):
        with pytest.raises(ValueError):
            bgzf_compress(b"x", block_input=0)
        with pytest.raises(ValueError):
            bgzf_compress(b"x", block_input=MAX_BLOCK_INPUT + 1)

    def test_missing_eof_detected(self, bgzf_file):
        _, bg = bgzf_file
        with pytest.raises(GzipFormatError, match="EOF"):
            scan_blocks(bg[: -len(BGZF_EOF)])

    def test_missing_bc_field_detected(self, fastq_small):
        g = stdlib_gzip.compress(fastq_small, 6)  # ordinary gzip, no BC
        with pytest.raises(GzipFormatError):
            scan_blocks(g)

    def test_block_crc_verified(self, bgzf_file):
        _, bg = bgzf_file
        blocks = scan_blocks(bg)
        corrupt = bytearray(bg)
        b = blocks[0]
        corrupt[b.coffset + b.csize - 6] ^= 0xFF  # CRC of first block
        with pytest.raises(GzipFormatError):
            read_block(bytes(corrupt), b)

    @pytest.mark.parametrize("wrap", [ByteSource, io.BytesIO], ids=["ByteSource", "file"])
    def test_ranged_sources_read_like_bytes(self, bgzf_file, wrap):
        """One scanner and one block reader serve bytes and ranged
        sources alike."""
        _, bg = bgzf_file
        blocks = scan_blocks(bg)
        assert scan_blocks(wrap(bg)) == blocks
        source = wrap(bg)
        assert [read_block(source, b) for b in blocks] == [read_block(bg, b) for b in blocks]

    @pytest.mark.parametrize("wrap", [bytes, ByteSource, io.BytesIO], ids=["bytes", "ByteSource", "file"])
    @pytest.mark.parametrize(
        "cut,message",
        [(-len(BGZF_EOF), "EOF"), (-len(BGZF_EOF) - 3, "truncated"), (5, "truncated")],
        ids=["no-eof", "mid-block", "mid-header"],
    )
    def test_bad_endings_raise_alike(self, bgzf_file, wrap, cut, message):
        _, bg = bgzf_file
        with pytest.raises(GzipFormatError, match=message) as excinfo:
            scan_blocks(wrap(bg[:cut]))
        assert excinfo.value.stage == "bgzf"

    def test_truncated_block_read_raises(self, bgzf_file):
        _, bg = bgzf_file
        block = scan_blocks(bg)[1]
        with pytest.raises(GzipFormatError, match="truncated") as excinfo:
            read_block(io.BytesIO(bg[: block.coffset + block.csize - 1]), block)
        assert excinfo.value.stage == "bgzf"

    def test_paper_ratio_claim(self, fastq_medium):
        """Related work: blocked files 'yield worse compression ratios'."""
        plain = stdlib_gzip.compress(fastq_medium, 6)
        blocked = bgzf_compress(fastq_medium, 6)
        assert len(blocked) > len(plain)


class TestVirtualOffsets:
    def test_round_trip(self):
        v = make_virtual_offset(123456, 789)
        assert split_virtual_offset(v) == (123456, 789)

    def test_bounds(self):
        with pytest.raises(ValueError):
            make_virtual_offset(0, 65536)
        with pytest.raises(ValueError):
            make_virtual_offset(1 << 48, 0)

    def test_ordering_matches_file_order(self):
        assert make_virtual_offset(100, 5) < make_virtual_offset(100, 6)
        assert make_virtual_offset(100, 65535) < make_virtual_offset(101, 0)


class TestReader:
    def test_length(self, bgzf_file):
        text, bg = bgzf_file
        assert len(BgzfReader(bg)) == len(text)

    def test_read_at_random_offsets(self, bgzf_file):
        text, bg = bgzf_file
        r = BgzfReader(bg)
        for off in (0, 1, 65279, 65280, 65281, len(text) - 10, len(text) // 3):
            assert r.read_at(off, 100) == text[off : off + 100]

    def test_read_spanning_blocks(self, bgzf_file):
        text, bg = bgzf_file
        r = BgzfReader(bg)
        off = MAX_BLOCK_INPUT - 50
        assert r.read_at(off, 200) == text[off : off + 200]

    def test_read_past_end_truncates(self, bgzf_file):
        text, bg = bgzf_file
        r = BgzfReader(bg)
        assert r.read_at(len(text) - 5, 100) == text[-5:]

    def test_read_past_eof_returns_empty(self, bgzf_file):
        _, bg = bgzf_file
        assert BgzfReader(bg).read_at(10**9, 1) == b""

    def test_offset_out_of_range_for_virtual(self, bgzf_file):
        _, bg = bgzf_file
        with pytest.raises(RandomAccessError):
            BgzfReader(bg).virtual_offset_for(10**9)

    def test_virtual_offset_round_trip(self, bgzf_file):
        text, bg = bgzf_file
        r = BgzfReader(bg)
        for off in (0, 70000, len(text) - 100):
            v = r.virtual_offset_for(off)
            assert r.read_at_virtual(v, 64) == text[off : off + 64]

    def test_unknown_virtual_offset(self, bgzf_file):
        _, bg = bgzf_file
        with pytest.raises(RandomAccessError):
            BgzfReader(bg).read_at_virtual(make_virtual_offset(12345, 0), 1)


class TestParallel:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_parallel_decompress(self, executor, bgzf_file):
        text, bg = bgzf_file
        assert bgzf_decompress_parallel(bg, executor, 3) == text

    def test_each_task_ships_only_its_block(self, bgzf_file):
        """A task carries its own block's bytes, not the whole file."""

        class Recording(SerialExecutor):
            def map(self, fn, items):
                shipped.extend(len(pickle.dumps((fn, item))) for item in items)
                return super().map(fn, items)

        text, bg = bgzf_file
        shipped: list[int] = []
        assert bgzf_decompress_parallel(bg, Recording()) == text
        blocks = [b for b in scan_blocks(bg) if not b.is_eof]
        assert len(shipped) == len(blocks) > 1
        assert all(size < b.csize + 200 for size, b in zip(shipped, blocks))

    def test_pugz_also_handles_bgzf(self, bgzf_file):
        """pugz treats BGZF as what it is: multi-member gzip."""
        from repro.core import pugz_decompress

        text, bg = bgzf_file
        assert pugz_decompress(bg, n_chunks=2) == text
