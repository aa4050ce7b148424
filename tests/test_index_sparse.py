"""Sparse checkpoint windows: reach sets, exact reads, sidecar formats.

A checkpoint stores only the window bytes its interval reads directly
(:func:`repro.deflate.tokens.window_reach` of each block, unioned by
:func:`repro.index.zran.block_checkpoints`); every other byte is
zero-filled when the window is rebuilt.  This module pins that

* a block's reach is exactly the set of window positions whose markers
  reach its output (the marker domain's own account of what it read),
  and both domains, under both kernels, find the same sets;
* 4 KiB reads at a stride — block-aligned and odd offsets — through a
  sparse index equal ``gzip.decompress`` and the same reads through a
  full-window index, over the 50-stream differential-fuzz corpus
  (stored, Z_FIXED, dynamic and sync-flush shapes) and multi-member
  files;
* the sequential and pugz builders agree checkpoint for checkpoint for
  1, 3 and 5 chunks under the pure and numpy kernels;
* v1 and v2 sidecars still load, as all-positions-present windows, and
  serve identical bytes — the fixtures under ``tests/data/index_compat``
  were written by the full-window builder (``multi.v2.idx`` by its
  ``GzipIndex.save``, ``multi.v1.idx`` in the v1 blob layout, which
  indexed the first member only);
* a v3 blob whose stored-byte count disagrees with its bitmap, or that
  is truncated, raises :class:`~repro.errors.IndexIntegrityError`.
"""

from __future__ import annotations

import gzip as stdlib_gzip
import os
import struct
import zlib

import numpy as np
import pytest

from repro.cli import main
from repro.core import marker
from repro.core.marker_inflate import marker_inflate
from repro.core.parallel_index import pugz_build_index
from repro.deflate.gzipfmt import gzip_wrap, parse_gzip_header
from repro.deflate.inflate import inflate
from repro.errors import IndexIntegrityError
from repro.index.zran import (
    CHECKPOINT_BLOCK,
    DEFAULT_SPAN,
    MASK_BYTES,
    Checkpoint,
    GzipIndex,
    build_index,
)
from tests.deflate.test_differential_fuzz import SEEDS, SHAPES, compress_shape, make_text

READ = 4096
COMPAT = os.path.join(os.path.dirname(__file__), "data", "index_compat")


def _offsets(usize: int) -> list[int]:
    """Block-size-aligned and odd read offsets at a stride."""
    aligned = list(range(0, usize, 3 * READ))
    odd = list(range(1, usize, 2 * READ + 1531))
    return aligned + odd + [max(0, usize - READ), max(0, usize - 1)]


def _full_windows(idx: GzipIndex, text: bytes) -> GzipIndex:
    """The same checkpoints with whole 32 KiB windows."""
    cps = [
        Checkpoint(
            cp.bit_offset,
            cp.uoffset,
            text[max(0, cp.uoffset - 32768) : cp.uoffset] if cp.kind == CHECKPOINT_BLOCK else b"",
            cp.kind,
        )
        for cp in idx.checkpoints
    ]
    return GzipIndex(checkpoints=cps, usize=idx.usize, span=idx.span, csize=idx.csize)


def _assert_reads(idx: GzipIndex, gz: bytes, text: bytes) -> None:
    for off in _offsets(len(text)):
        assert idx.read_at(gz, off, READ) == text[off : off + READ], off


def _bits(packed) -> np.ndarray:
    return np.unpackbits(np.frombuffer(bytes(packed), np.uint8)).astype(bool)


class TestReach:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_reach_is_the_markers_a_block_outputs(self, shape, seed):
        """Decoded after a fully undetermined window, a block outputs
        marker ``U_j`` exactly when it reads window position ``j``."""
        payload = compress_shape(make_text(seed, 60_000), shape, pieces=5)
        blocks = inflate(payload, capture_reach=True).blocks
        assert len(blocks) >= 3
        for b in blocks[1:]:
            symbols = marker_inflate(payload, start_bit=b.start_bit, max_blocks=1).symbols
            read = np.zeros(32768, bool)
            read[symbols[symbols >= marker.MARKER_BASE] - marker.MARKER_BASE] = True
            got = np.zeros(32768, bool) if b.reach is None else _bits(b.reach)
            assert np.array_equal(got, read), b.start_bit

    @pytest.mark.parametrize("kernel", ["pure", "numpy"])
    def test_both_domains_find_the_same_sets(self, kernel, fastq_small):
        payload = compress_shape(fastq_small, "dynamic_fast", pieces=6)
        ref = inflate(payload, kernel="pure", capture_reach=True).blocks
        for got in (
            inflate(payload, kernel=kernel, capture_reach=True).blocks,
            marker_inflate(payload, kernel=kernel, capture_reach=True).blocks,
        ):
            assert [b.start_bit for b in got] == [b.start_bit for b in ref]
            for a, b in zip(got, ref):
                assert (a.reach is None) == (b.reach is None)
                if a.reach is not None:
                    assert np.array_equal(a.reach, b.reach)

    def test_plain_decodes_capture_nothing(self, fastq_small):
        payload = compress_shape(fastq_small, "dynamic_fast", pieces=3)
        assert all(b.reach is None for b in inflate(payload).blocks)
        assert all(b.reach is None for b in marker_inflate(payload).blocks)


class TestSparseReads:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_sparse_equals_full_and_gzip(self, seed, shape):
        text = make_text(seed)
        gz = gzip_wrap(compress_shape(text, shape, pieces=6), text)
        assert stdlib_gzip.decompress(gz) == text
        sparse = build_index(gz, span=2048)
        assert sum(cp.kind == CHECKPOINT_BLOCK for cp in sparse.checkpoints) >= 2
        _assert_reads(sparse, gz, text)
        _assert_reads(_full_windows(sparse, text), gz, text)
        _assert_reads(build_index(gz), gz, text)

    def test_sparse_windows_store_a_few_kib(self, fastq_medium_gz6, fastq_medium):
        idx = build_index(fastq_medium_gz6)
        stored = [len(cp.window) for cp in idx.checkpoints if cp.kind == CHECKPOINT_BLOCK]
        start = 8 * parse_gzip_header(fastq_medium_gz6)[0]
        # One checkpoint per block: every block but the member's first.
        assert len(stored) == len(inflate(fastq_medium_gz6, start_bit=start).blocks) - 1
        assert max(stored) < 32768 // 2
        _assert_reads(idx, fastq_medium_gz6, fastq_medium)

    @pytest.mark.parametrize("n_chunks", [1, 3])
    def test_multi_member_fixture(self, n_chunks):
        with open(os.path.join(COMPAT, "multi.gz"), "rb") as fh:
            gz = fh.read()
        text = stdlib_gzip.decompress(gz)
        out, idx = pugz_build_index(gz, n_chunks=n_chunks)
        assert out == text
        assert idx == build_index(gz)
        assert idx.members == 2
        _assert_reads(idx, gz, text)
        _assert_reads(_full_windows(idx, text), gz, text)


class TestBuildersAgree:
    @pytest.fixture(scope="class")
    def two_members(self, fastq_small):
        """A ~7-block member (3 and 5 chunks plan 3 and 4 of them, so
        later chunks' blocks come from the marker domain) and a short
        second member."""
        text = fastq_small + fastq_small[:40_000]
        gz = stdlib_gzip.compress(fastq_small, 6, mtime=0) + stdlib_gzip.compress(
            fastq_small[:40_000], 6, mtime=0
        )
        return gz, text

    @pytest.mark.parametrize("kernel", ["pure", "numpy"])
    @pytest.mark.parametrize("n_chunks", [1, 3, 5])
    def test_pugz_equals_sequential(self, two_members, kernel, n_chunks, monkeypatch):
        gz, text = two_members
        monkeypatch.setenv("REPRO_KERNEL", kernel)
        ref = build_index(gz)
        out, idx = pugz_build_index(gz, n_chunks=n_chunks, kernel=kernel)
        assert out == text
        assert idx == ref
        assert idx.to_bytes() == ref.to_bytes()


class TestLegacySidecars:
    @pytest.fixture(scope="class")
    def corpus(self):
        with open(os.path.join(COMPAT, "multi.gz"), "rb") as fh:
            gz = fh.read()
        return gz, stdlib_gzip.decompress(gz)

    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_loads_whole_windows_and_serves_identical_bytes(self, corpus, version):
        gz, text = corpus
        idx = GzipIndex.load(os.path.join(COMPAT, f"multi.{version}.idx"))
        assert idx.span == 16384
        blocks = [cp for cp in idx.checkpoints if cp.kind == CHECKPOINT_BLOCK]
        assert blocks
        for cp in blocks:
            # Every position present: the window is the preceding output.
            assert _bits(cp.mask).all()
            assert cp.history() == cp.window == text[cp.uoffset - 32768 : cp.uoffset]
        _assert_reads(idx, gz, text[: idx.usize])

    def test_v2_resaves_as_v3_with_the_same_reads(self, corpus, tmp_path):
        gz, text = corpus
        idx = GzipIndex.load(os.path.join(COMPAT, "multi.v2.idx"))
        path = str(tmp_path / "again.idx")
        idx.save(path)
        with open(path, "rb") as fh:
            assert b"ZRN3" in fh.read(16)
        again = GzipIndex.load(path)
        assert again == idx
        _assert_reads(again, gz, text)


class TestV3Integrity:
    @pytest.fixture(scope="class")
    def blob(self, fastq_small):
        gz = stdlib_gzip.compress(fastq_small, 6, mtime=0)
        return build_index(gz, span=DEFAULT_SPAN).to_bytes()

    @staticmethod
    def _checkpoint_fields(blob: bytes):
        """``(header offset, stored, clen)`` of each checkpoint."""
        pos = 8 + 28
        (n,) = struct.unpack_from("<I", blob, 8 + 24)
        for _ in range(n):
            _, _, _, stored, clen = struct.unpack_from("<BQQII", blob, pos)
            yield pos, stored, clen
            pos += 25 + clen

    def test_round_trip(self, blob):
        assert GzipIndex.from_bytes(blob).to_bytes() == blob

    def test_stored_count_off_by_one(self, blob):
        pos, stored, _ = list(self._checkpoint_fields(blob))[1]
        bad = bytearray(blob)
        struct.pack_into("<I", bad, pos + 17, stored + 1)
        with pytest.raises(IndexIntegrityError):
            GzipIndex.from_bytes(bytes(bad))

    def test_bitmap_popcount_disagrees(self, blob):
        """A consistent length but one bitmap bit too few."""
        pos, stored, clen = list(self._checkpoint_fields(blob))[1]
        payload = bytearray(zlib.decompress(blob[pos + 25 : pos + 25 + clen]))
        bits = np.unpackbits(np.frombuffer(bytes(payload[:MASK_BYTES]), np.uint8))
        bits[np.flatnonzero(bits)[0]] = 0
        payload[:MASK_BYTES] = np.packbits(bits).tobytes()
        cw = zlib.compress(bytes(payload))
        header = bytearray(blob[pos : pos + 25])
        struct.pack_into("<I", header, 21, len(cw))
        bad = blob[:pos] + bytes(header) + cw + blob[pos + 25 + clen :]
        with pytest.raises(IndexIntegrityError, match="mask"):
            GzipIndex.from_bytes(bad)

    def test_truncated_anywhere(self, blob):
        for cut in list(range(8, 200)) + list(range(200, len(blob), 97)):
            with pytest.raises(IndexIntegrityError):
                GzipIndex.from_bytes(blob[:cut])


def test_index_info_prints_window_bytes(tmp_path, fastq_small, capsys):
    gz = tmp_path / "reads.gz"
    gz.write_bytes(stdlib_gzip.compress(fastq_small, 6, mtime=0))
    idx = tmp_path / "reads.idx"
    assert main(["index", "build", str(gz), str(idx)]) == 0
    capsys.readouterr()
    assert main(["index", "info", str(idx)]) == 0
    out = capsys.readouterr().out
    loaded = GzipIndex.load(str(idx))
    stored = sorted(len(cp.window) for cp in loaded.checkpoints if cp.kind == CHECKPOINT_BLOCK)
    assert f"window bytes:    {stored[len(stored) // 2]} median" in out
    assert f"{sum(stored)} stored in all" in out
