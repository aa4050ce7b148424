"""Token-granular checkpoints: entry points inside DEFLATE blocks.

A block longer than the span is cut right after matches into pieces
at most ``span`` long, and each cut is a ``"token"`` checkpoint with
its own sparse window; a decode from one parses its block's header at
the ``"block"`` or ``"member"`` checkpoint before it.  Every decode stops
right after the first match whose copy reaches the bytes asked for, or
at the end of the block.  This module pins that

* a warm 4 KiB read on plain gzip -6 FASTQ, whose blocks exceed the
  span, decodes at most ``span`` + 4 KiB + 1 KiB;
* both kernels stop at the same ``(data, end_bit)`` for every stop
  offset, that the stop is the one the rule names, and that a decode
  resumed inside the block continues exactly;
* pieces start right after a match, so a read ending at a token
  checkpoint decodes exactly its interval, even where a far match
  follows the cut; and should a hand-made index let a decode run past
  an interval's end, the bytes past it are never served or cached;
* the sequential and pugz builders agree on token checkpoints for 1, 3
  and 5 chunks under both kernels;
* a v3 sidecar written before token checkpoints existed
  (``tests/data/index_compat/multi.v3.idx``, by the block-granular
  builder at span 16384) still loads and serves identical bytes;
* a v4 token checkpoint without a block or member checkpoint before it
  in its block raises :class:`~repro.errors.IndexIntegrityError`.
"""

from __future__ import annotations

import gzip as stdlib_gzip
import importlib
import os
import random
import struct
import zlib

import numpy as np
import pytest

from repro.cli import main
from repro.core.parallel_index import pugz_build_index
from repro.deflate.gzipfmt import gzip_wrap, parse_gzip_header
from repro.deflate.inflate import inflate
from repro.deflate.tokens import piece_starts, token_ends
from repro.errors import IndexIntegrityError
from repro.index.seekable import SeekableGzipReader
from repro.index.zran import (
    CHECKPOINT_BLOCK,
    CHECKPOINT_MEMBER,
    CHECKPOINT_TOKEN,
    GzipIndex,
    IntervalCache,
    build_index,
)

READ = 4096
SPAN = 16384
COMPAT = os.path.join(os.path.dirname(__file__), "data", "index_compat")


def _blocks(gz: bytes):
    start, *_ = parse_gzip_header(gz)
    return inflate(gz, start_bit=8 * start).blocks


@pytest.fixture(scope="module")
def indexed(fastq_medium_gz6):
    return build_index(fastq_medium_gz6, span=SPAN)


@pytest.fixture(scope="module")
def block(fastq_small):
    """The second block of a gzip -6 file, with its window, output
    and token ends."""
    gz = stdlib_gzip.compress(fastq_small, 6, mtime=0)
    b = _blocks(gz)[1]
    window = fastq_small[b.out_start - 32768 : b.out_start]
    result = inflate(
        gz, start_bit=b.start_bit, window=window, max_blocks=1, capture_tokens=True
    )
    offs, vals = result.tokens.offsets(), result.tokens.values()
    ends = np.cumsum(np.where(offs > 0, vals, 1))
    return gz, b, window, result.data, offs, ends


class TestSpan:
    def test_warm_reads_honour_span_inside_blocks(
        self, fastq_medium, fastq_medium_gz6, indexed
    ):
        """Plain gzip -6: every block exceeds the span, so only token
        checkpoints keep a read under it."""
        gz, text = fastq_medium_gz6, fastq_medium
        assert min(b.out_end - b.out_start for b in _blocks(gz)[:-1]) > SPAN
        kinds = [cp.kind for cp in indexed.checkpoints]
        assert kinds.count(CHECKPOINT_TOKEN) >= kinds.count(CHECKPOINT_BLOCK)
        offs = [cp.uoffset for cp in indexed.checkpoints] + [indexed.usize]
        assert max(b - a for a, b in zip(offs, offs[1:])) <= SPAN
        reader = SeekableGzipReader(gz, index=indexed)
        for off in range(1, len(text) - READ, 7919):
            reader.stats.reset_counters()
            assert reader.pread(off, READ) == text[off : off + READ]
            assert reader.stats.decoded_bytes <= SPAN + READ + 1024, off

    def test_cold_start_index_is_the_sequential_one(self, fastq_medium_gz6, indexed):
        reader = SeekableGzipReader(fastq_medium_gz6, span=SPAN)
        assert reader.pread(0, 16)
        assert reader.index == indexed


class TestStopRule:
    def test_kernels_stop_at_the_same_token(self, block):
        gz, b, window, out, offs, ends = block
        stops = list(range(1, len(out) + 40, 97)) + [int(e) for e in ends[100:140]]
        for stop in stops:
            got = {
                kernel: inflate(
                    gz, start_bit=b.start_bit, window=window, stop_output=stop,
                    kernel=kernel,
                )
                for kernel in ("pure", "numpy")
            }
            pure, vec = got["pure"], got["numpy"]
            assert (vec.data, vec.end_bit) == (pure.data, pure.end_bit), stop
            assert (vec.open_block is None) == (pure.open_block is None), stop
            # The first match whose copy reaches the stop, or the block's end.
            reach = np.flatnonzero((offs > 0) & (ends >= stop))
            expected = min(len(out), int(ends[reach[0]]) if len(reach) else len(out))
            if stop > len(out):  # past the block: the decode runs on into the next
                assert len(pure.data) >= len(out)
                continue
            assert pure.data == out[:expected], stop
            assert (pure.open_block is None) == (expected == len(out)), stop

    @pytest.mark.parametrize("kernel", ["pure", "numpy"])
    def test_resumes_inside_the_block(self, block, kernel):
        gz, b, window, out, _, _ = block
        first = inflate(gz, start_bit=b.start_bit, window=window, stop_output=5000, kernel=kernel)
        assert first.open_block is not None and len(first.data) < len(out)
        rest = inflate(
            gz, start_bit=first.end_bit, window=(window + first.data)[-32768:],
            open_block=first.open_block, max_blocks=1, kernel=kernel,
        )
        assert first.data + rest.data == out
        assert rest.end_bit == b.end_bit

    def test_stop_needs_a_plain_decode(self, block):
        gz, b, *_ = block
        with pytest.raises(ValueError):
            inflate(gz, start_bit=b.start_bit, stop_output=10, capture_tokens=True)


def _far_match_text(n: int = 400_000, seed: int = 7) -> bytes:
    """Random bytes in runs of 200 literals, each followed by a 30-byte
    match 300 bytes back or, every ~5 KB, by a 40-byte match 30,000
    bytes back: most 4 KiB intervals read only a few hundred bytes
    before them, and a far match may come right after one ends."""
    rng = random.Random(seed)
    out = bytearray(rng.randbytes(33_000))
    last_far = len(out)
    while len(out) < n:
        out += rng.randbytes(200)
        if len(out) - last_far > 5000:
            out += out[-30_000:-29_960]
            last_far = len(out)
        else:
            out += out[-300:-270]
    return bytes(out)


def _cut_anywhere(offsets, ends, span):
    """:func:`~repro.deflate.tokens.piece_starts` without its rule that
    a piece starts right after a match."""
    firsts, begin = [0], 0
    while int(ends[-1]) - begin > span:
        k = max(int(np.searchsorted(ends, begin + span, "right")), firsts[-1] + 1)
        firsts.append(k)
        begin = int(ends[k - 1])
    return firsts


class TestIntervalEnd:
    def test_pieces_start_after_a_match(self, block):
        *_, offs, ends = block
        firsts = piece_starts(offs, ends, 4096)
        assert len(firsts) > 3
        assert all(offs[k - 1] > 0 for k in firsts[1:])
        starts = [0, *(int(ends[k - 1]) for k in firsts[1:]), int(ends[-1])]
        assert max(b - a for a, b in zip(starts, starts[1:])) <= 4096

    def test_a_literal_run_longer_than_the_span_is_not_cut(self):
        offs = np.zeros(20_000, dtype=np.int32)
        offs[[100, 9000]] = 50
        ends = token_ends(offs, np.full(20_000, 3))
        assert piece_starts(offs, ends, 4096) == [0, 101, 9001]

    def test_reads_ending_at_a_token_checkpoint_decode_its_interval(self):
        """Every interval decode stops exactly at the next checkpoint.
        Here most intervals read only recent history, and a far match
        may follow an interval's end: a decode that ran past the end
        would need window bytes its checkpoint does not hold."""
        text = _far_match_text()
        gz = stdlib_gzip.compress(text, 6, mtime=0)
        idx = build_index(gz, span=4096)
        cps = idx.checkpoints
        cuts = [i for i in range(len(cps) - 1) if cps[i + 1].kind == CHECKPOINT_TOKEN]
        assert sum(len(cps[i].history()) < 8192 for i in cuts) > 5
        for i in cuts:
            cut = cps[i + 1].uoffset
            reader = SeekableGzipReader(gz, index=idx)
            assert reader.pread(cut - 10, 10) == text[cut - 10 : cut], i
            assert reader.stats.decoded_bytes == cut - cps[i].uoffset, i

    def test_bytes_past_the_interval_are_never_kept(
        self, fastq_medium, fastq_medium_gz6, monkeypatch
    ):
        """An index whose token checkpoints may follow a literal (not
        one this package builds) lets a decode run past an interval's
        end, to the next match.  Those bytes may come from window
        positions the checkpoint did not store, so the interval is cut
        at its end, cached whole, and never resumed."""
        gz, text = fastq_medium_gz6, fastq_medium
        inflate_mod = importlib.import_module("repro.deflate.inflate")
        monkeypatch.setattr(inflate_mod, "piece_starts", _cut_anywhere)
        idx = build_index(gz, span=SPAN)
        cps = idx.checkpoints
        reader = SeekableGzipReader(gz, index=idx)
        overshot = 0
        for i in range(len(cps) - 1):
            if cps[i + 1].kind != CHECKPOINT_TOKEN:
                continue
            size = cps[i + 1].uoffset - cps[i].uoffset
            reader.stats.reset_counters()
            cut = cps[i + 1].uoffset
            assert reader.pread(cut - 10, 10) == text[cut - 10 : cut]
            overshot += reader.stats.decoded_bytes > size
            entry = dict(reader._cache.items())[i]
            assert entry[0] == text[cps[i].uoffset : cut] and entry[1] is None
            assert reader.pread(cut - 10, 20) == text[cut - 10 : cut + 10]
        assert overshot


class TestBuilders:
    @pytest.mark.parametrize("kernel", ["pure", "numpy"])
    @pytest.mark.parametrize("n_chunks", [1, 3, 5])
    def test_pugz_equals_sequential(self, fastq_small, kernel, n_chunks, monkeypatch):
        gz = stdlib_gzip.compress(fastq_small, 6, mtime=0) + stdlib_gzip.compress(
            fastq_small[:40_000], 6, mtime=0
        )
        monkeypatch.setenv("REPRO_KERNEL", kernel)
        ref = build_index(gz, span=4096)
        assert sum(cp.kind == CHECKPOINT_TOKEN for cp in ref.checkpoints) > 10
        out, idx = pugz_build_index(gz, n_chunks=n_chunks, kernel=kernel, span=4096)
        assert out == fastq_small + fastq_small[:40_000]
        assert idx == ref


    def test_empty_blocks(self, fastq_small):
        """An empty block (a sync flush) gets no checkpoint: the long
        block after it does, and is cut.  A long block right after an
        empty one at the member's start is not: its header is at no
        checkpoint a token checkpoint could parse it from."""
        co = zlib.compressobj(6, zlib.DEFLATED, -15)
        raw = (
            co.flush(zlib.Z_SYNC_FLUSH)
            + co.compress(fastq_small[:30_000])  # one block, longer than the span
            + co.flush(zlib.Z_SYNC_FLUSH)
            + co.compress(fastq_small[30_000:])
            + co.flush()
        )
        gz = gzip_wrap(raw, fastq_small)
        blocks = _blocks(gz)
        assert blocks[0].out_end == 0 and blocks[1].out_end == 30_000
        seam = blocks[2]
        assert seam.out_start == seam.out_end
        after = next(b for b in blocks if b.start_bit > seam.start_bit)
        idx = build_index(gz, span=SPAN)
        cps = idx.checkpoints
        assert all(cp.bit_offset != seam.start_bit for cp in cps)
        assert not any(cp.kind == CHECKPOINT_TOKEN and cp.uoffset < blocks[1].out_end for cp in cps)
        at = next(i for i, cp in enumerate(cps) if cp.bit_offset == after.start_bit)
        assert cps[at].kind == CHECKPOINT_BLOCK and cps[at + 1].kind == CHECKPOINT_TOKEN
        for off in range(1, len(fastq_small) - READ, 3001):
            assert idx.read_at(gz, off, READ) == fastq_small[off : off + READ], off
        assert pugz_build_index(gz, n_chunks=3)[1] == idx


class TestSidecars:
    def test_v3_loads_and_serves_identical_bytes(self):
        with open(os.path.join(COMPAT, "multi.gz"), "rb") as fh:
            gz = fh.read()
        text = stdlib_gzip.decompress(gz)
        idx = GzipIndex.load(os.path.join(COMPAT, "multi.v3.idx"))
        assert idx.span == SPAN and idx.usize == len(text)
        assert {cp.kind for cp in idx.checkpoints} == {CHECKPOINT_BLOCK, CHECKPOINT_MEMBER}
        for off in list(range(0, len(text), 3 * READ)) + list(range(1, len(text), 2 * READ + 1531)):
            assert idx.read_at(gz, off, READ) == text[off : off + READ], off

    @staticmethod
    def _kind_at(blob: bytes, n: int) -> int:
        """Offset of checkpoint ``n``'s kind byte in a v4 blob."""
        pos = 8 + 28
        for _ in range(n):
            (clen,) = struct.unpack_from("<I", blob, pos + 21)
            pos += 25 + clen
        return pos

    def test_round_trip(self, indexed):
        blob = indexed.to_bytes()
        assert blob[:8] == b"RPZIDX4\0"
        assert GzipIndex.from_bytes(blob) == indexed

    def test_token_without_a_block_before_it(self, indexed):
        blob = bytearray(indexed.to_bytes())
        blob[self._kind_at(blob, 0)] = 2  # the member checkpoint
        with pytest.raises(IndexIntegrityError, match="token checkpoint 0"):
            GzipIndex.from_bytes(bytes(blob))

    def test_token_before_its_block(self, indexed):
        """A token checkpoint's block checkpoint must precede it in the
        stream: swap one pair's bit offsets."""
        cps = indexed.checkpoints
        i = next(i for i, cp in enumerate(cps) if cp.kind == CHECKPOINT_TOKEN)
        blob = bytearray(indexed.to_bytes())
        head, tok = self._kind_at(blob, i - 1), self._kind_at(blob, i)
        blob[head + 1 : head + 9], blob[tok + 1 : tok + 9] = blob[tok + 1 : tok + 9], blob[head + 1 : head + 9]
        with pytest.raises(IndexIntegrityError, match=f"token checkpoint {i}"):
            GzipIndex.from_bytes(bytes(blob))

    def test_v3_has_no_token_kind(self, indexed):
        blob = bytearray(indexed.to_bytes())
        blob[:8] = b"RPZIDX3\0"
        with pytest.raises(IndexIntegrityError, match="unknown checkpoint kind 2"):
            GzipIndex.from_bytes(bytes(blob))

    def test_resaved_sidecar_reads_alike(self, indexed, fastq_medium, fastq_medium_gz6, tmp_path):
        path = str(tmp_path / "reads.idx")
        indexed.save(path)
        loaded = GzipIndex.load(path)
        assert loaded == indexed
        cache = IntervalCache()
        mid = len(fastq_medium) // 2
        got = loaded.read_at(fastq_medium_gz6, mid, READ, cache=cache)
        assert got == fastq_medium[mid : mid + READ]


def test_index_info_prints_token_windows(tmp_path, fastq_small, capsys):
    gz = tmp_path / "reads.gz"
    gz.write_bytes(stdlib_gzip.compress(fastq_small, 6, mtime=0))
    idx = tmp_path / "reads.idx"
    assert main(["index", "build", str(gz), str(idx)]) == 0
    capsys.readouterr()
    assert main(["index", "info", str(idx)]) == 0
    out = capsys.readouterr().out
    loaded = GzipIndex.load(str(idx))
    stored = sorted(len(cp.window) for cp in loaded.checkpoints if cp.kind == CHECKPOINT_TOKEN)
    assert stored
    assert f"token windows:   {stored[len(stored) // 2]} median per token checkpoint" in out
    entered = sum(cp.kind != CHECKPOINT_TOKEN for cp in loaded.checkpoints)
    assert f"per block:       {len(loaded.checkpoints) / entered:.2f} checkpoints" in out
