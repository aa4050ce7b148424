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
  builder at span 16384) and a v4 one written before windows were
  stored once (``multi.v4.idx``, at span 4096) still load and serve
  identical bytes;
* a v4 or v5 token checkpoint without a block or member checkpoint
  before it in its block raises :class:`~repro.errors.IndexIntegrityError`;
* a read makes one ``pread``: a later interval's decode, and the
  header of its block, slice the bytes the first one fetched; a
  damaged index whose bound is short still widens its ``pread``;
* a reader parses each block header at a checkpoint once: once every
  block is touched, reads parse no header and build no decode table; a
  corrupt header raises the same error class and bit offset on first
  and repeated reads, with and without a cache, and is never kept; an
  evicted header is parsed again and serves the same bytes;
* :meth:`~repro.index.zran.Checkpoint.history` equals the
  ``flatnonzero`` scatter it replaced.
"""

from __future__ import annotations

import bisect
import dataclasses
import gzip as stdlib_gzip
import importlib
import os
import random
import struct
import zlib

import numpy as np
import pytest

import repro.index.zran as zran_mod
from repro.cli import main
from repro.core.parallel_index import pugz_build_index
from repro.deflate.bitio import BitReader
from repro.deflate.gzipfmt import gzip_wrap, parse_gzip_header
from repro.deflate.huffman import HuffmanDecoder, _cached_decoder
from repro.deflate.inflate import inflate, read_block_header
from repro.deflate.tokens import piece_starts, token_ends
from repro.errors import BlockHeaderError, DeflateError, IndexIntegrityError, RandomAccessError
from repro.index.integrity import unseal
from repro.index.seekable import SeekableGzipReader
from repro.index.zran import (
    CHECKPOINT_BLOCK,
    CHECKPOINT_MEMBER,
    CHECKPOINT_TOKEN,
    MASK_BYTES,
    WINDOW_SIZE,
    Checkpoint,
    GzipIndex,
    IntervalCache,
    build_index,
)
from repro.io.source import ByteSource
from tests.test_seekable import _sync_flush_gzip

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
        assert pugz_build_index(gz, n_chunks=3, span=SPAN)[1] == idx


def _multi() -> tuple[bytes, bytes]:
    with open(os.path.join(COMPAT, "multi.gz"), "rb") as fh:
        gz = fh.read()
    return gz, stdlib_gzip.decompress(gz)


class TestSidecars:
    @staticmethod
    def _legacy_reads(version: str) -> GzipIndex:
        gz, text = _multi()
        idx = GzipIndex.load(os.path.join(COMPAT, f"multi.{version}.idx"))
        assert idx.version == int(version[1]) and idx.usize == len(text)
        for off in list(range(0, len(text), 3 * READ)) + list(range(1, len(text), 2 * READ + 1531)):
            assert idx.read_at(gz, off, READ) == text[off : off + READ], off
        return idx

    def test_v3_loads_and_serves_identical_bytes(self):
        idx = self._legacy_reads("v3")
        assert idx.span == SPAN
        assert {cp.kind for cp in idx.checkpoints} == {CHECKPOINT_BLOCK, CHECKPOINT_MEMBER}

    def test_v4_loads_and_serves_identical_bytes(self):
        idx = self._legacy_reads("v4")
        assert idx.span == 4096
        kinds = {cp.kind for cp in idx.checkpoints}
        assert kinds == {CHECKPOINT_BLOCK, CHECKPOINT_MEMBER, CHECKPOINT_TOKEN}
        assert idx == build_index(_multi()[0], span=4096)

    @staticmethod
    def _v4() -> bytes:
        with open(os.path.join(COMPAT, "multi.v4.idx"), "rb") as fh:
            return unseal(fh.read(), b"ZRN4")

    @staticmethod
    def _kind_at(blob: bytes, n: int) -> int:
        """Offset of checkpoint ``n``'s kind byte in a v4 or v5 blob."""
        pos = 8 + 28
        if blob[:8] == b"RPZIDX5\0":
            return pos + 21 * n
        for _ in range(n):
            (clen,) = struct.unpack_from("<I", blob, pos + 21)
            pos += 25 + clen
        return pos

    def test_round_trip(self, indexed):
        blob = indexed.to_bytes()
        assert blob[:8] == b"RPZIDX5\0"
        assert GzipIndex.from_bytes(blob) == indexed

    @staticmethod
    def _v5() -> bytes:
        return build_index(_multi()[0], span=4096).to_bytes()

    @staticmethod
    def _token_without_a_block_before_it(blob: bytes) -> None:
        blob = bytearray(blob)
        blob[TestSidecars._kind_at(blob, 0)] = 2  # the member checkpoint
        with pytest.raises(IndexIntegrityError, match="token checkpoint 0"):
            GzipIndex.from_bytes(bytes(blob))

    @staticmethod
    def _token_before_its_block(blob: bytes) -> None:
        """A token checkpoint's block checkpoint must precede it in the
        stream: swap one pair's bit offsets."""
        cps = GzipIndex.from_bytes(blob).checkpoints
        i = next(i for i, cp in enumerate(cps) if cp.kind == CHECKPOINT_TOKEN)
        blob = bytearray(blob)
        head, tok = TestSidecars._kind_at(blob, i - 1), TestSidecars._kind_at(blob, i)
        blob[head + 1 : head + 9], blob[tok + 1 : tok + 9] = blob[tok + 1 : tok + 9], blob[head + 1 : head + 9]
        with pytest.raises(IndexIntegrityError, match=f"token checkpoint {i}"):
            GzipIndex.from_bytes(bytes(blob))

    def test_token_without_a_block_before_it(self):
        self._token_without_a_block_before_it(self._v4())

    def test_token_before_its_block(self):
        self._token_before_its_block(self._v4())

    def test_v5_token_without_a_block_before_it(self):
        self._token_without_a_block_before_it(self._v5())

    def test_v5_token_before_its_block(self):
        self._token_before_its_block(self._v5())

    def test_v3_has_no_token_kind(self):
        blob = bytearray(self._v4())
        blob[:8] = b"RPZIDX3\0"
        with pytest.raises(IndexIntegrityError, match="unknown checkpoint kind 2"):
            GzipIndex.from_bytes(bytes(blob))

    def test_v5_has_no_kind_past_token(self):
        blob = bytearray(self._v5())
        blob[self._kind_at(blob, 1)] = 3
        with pytest.raises(IndexIntegrityError, match="unknown checkpoint kind 3"):
            GzipIndex.from_bytes(bytes(blob))

    def test_v4_resaves_as_v5_with_the_same_reads(self, tmp_path):
        gz, text = _multi()
        idx = GzipIndex.load(os.path.join(COMPAT, "multi.v4.idx"))
        path = str(tmp_path / "again.idx")
        idx.save(path)
        with open(path, "rb") as fh:
            assert fh.read(12)[8:] == b"ZRN5"
        again = GzipIndex.load(path)
        assert again == idx and again.version == 5
        assert os.path.getsize(path) < os.path.getsize(os.path.join(COMPAT, "multi.v4.idx"))
        for off in range(0, len(text), 2 * READ + 1531):
            assert again.read_at(gz, off, READ) == text[off : off + READ], off

    def test_resaved_sidecar_reads_alike(self, indexed, fastq_medium, fastq_medium_gz6, tmp_path):
        path = str(tmp_path / "reads.idx")
        indexed.save(path)
        loaded = GzipIndex.load(path)
        assert loaded == indexed
        cache = IntervalCache()
        mid = len(fastq_medium) // 2
        got = loaded.read_at(fastq_medium_gz6, mid, READ, cache=cache)
        assert got == fastq_medium[mid : mid + READ]


class TestOnePread:
    @pytest.fixture
    def preads(self, monkeypatch):
        """The ``(offset, size)`` of every ``ByteSource.pread``."""
        calls = []
        real = ByteSource.pread

        def spy(self, offset, size):
            calls.append((offset, size))
            return real(self, offset, size)

        monkeypatch.setattr(ByteSource, "pread", spy)
        return calls

    @staticmethod
    def _crossings(idx: GzipIndex):
        """``(i, cut)``: a token checkpoint at output ``cut``, after
        checkpoint ``i``."""
        cps = idx.checkpoints
        return [(i, cps[i + 1].uoffset) for i in range(len(cps) - 1) if cps[i + 1].kind == CHECKPOINT_TOKEN]

    def test_a_read_across_a_token_checkpoint_preads_once(
        self, fastq_medium, fastq_medium_gz6, indexed, preads
    ):
        gz, text = fastq_medium_gz6, fastq_medium
        crossings = self._crossings(indexed)
        # Without a cache, from a block checkpoint: the token
        # checkpoint's header is parsed from the same bytes.
        firsts = [(i, cut) for i, cut in crossings if indexed.checkpoints[i].kind == CHECKPOINT_BLOCK]
        assert len(firsts) > 10
        for i, cut in firsts:
            preads.clear()
            assert indexed.read_at(gz, cut - READ // 2, READ) == text[cut - READ // 2 : cut + READ // 2]
            assert len(preads) == 1, (i, preads)
        # A reader holding every block header: any crossing, one pread.
        reader = SeekableGzipReader(gz, index=indexed)
        for cp in indexed.checkpoints:
            if cp.kind != CHECKPOINT_TOKEN:
                reader.pread(cp.uoffset, 1)
        both = 0
        for i, cut in crossings:
            preads.clear()
            reader.stats.reset_counters()
            assert reader.pread(cut - READ // 2, READ) == text[cut - READ // 2 : cut + READ // 2]
            assert reader.stats.headers_parsed == 0
            assert len(preads) == reader.stats.pread_calls == 1, i
            both += reader.stats.inflate_calls == 2
        assert both > 10

    def test_a_read_across_intervals_decodes_each_from_its_own_range(
        self, fastq_medium, fastq_medium_gz6, indexed, monkeypatch
    ):
        """A whole-file read hands each interval's decode the same
        compressed bytes as a read of that interval alone: the one
        ``pread`` it shares is sliced to each decode's own bound, not
        copied to the read's end for every interval."""
        gz, text = fastq_medium_gz6, fastq_medium
        handed = []
        real = zran_mod.inflate

        def spy(data, *args, **kwargs):
            handed.append(len(data))
            return real(data, *args, **kwargs)

        monkeypatch.setattr(zran_mod, "inflate", spy)
        assert indexed.read_at(gz, 0, len(text)) == text
        whole = list(handed)
        handed.clear()
        bounds = [cp.uoffset for cp in indexed.checkpoints] + [len(text)]
        for start, stop in zip(bounds, bounds[1:]):
            assert indexed.read_at(gz, start, stop - start) == text[start:stop]
        assert len(whole) == len(indexed.checkpoints) > 50
        assert whole == handed

    def test_a_pure_decode_fetches_only_to_its_decode_bound(
        self, fastq_medium, fastq_medium_gz6, indexed, preads, monkeypatch
    ):
        """The pure loop stops at the first checkpoint at or after a
        read's last byte, so a read it decodes fetches no compressed
        byte past that checkpoint; an explicit ``kernel="numpy"``, which
        decodes whole blocks, still fetches to the block's end."""
        gz, text = fastq_medium_gz6, fastq_medium
        # ``kernel=None`` below is the auto gate, which keeps 4 KiB
        # reads on the pure loop.
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        cps = indexed.checkpoints
        offsets = [cp.uoffset for cp in cps]
        tried = 0
        for i in range(len(cps) - 2):
            # A 4 KiB read from block checkpoint i (no header to fetch)
            # whose next checkpoint is a token checkpoint, inside the
            # block the read ends in.
            if (
                cps[i].kind != CHECKPOINT_BLOCK
                or cps[i + 1].kind != CHECKPOINT_TOKEN
                or cps[i + 1].uoffset - cps[i].uoffset <= READ
            ):
                continue
            off = cps[i].uoffset
            j = bisect.bisect_left(offsets, off + READ, lo=i + 1)
            decode_end = (cps[j].bit_offset + 7) >> 3
            for kernel in (None, "pure"):
                preads.clear()
                assert indexed.read_at(gz, off, READ, kernel=kernel) == text[off : off + READ]
                assert len(preads) == 1, preads
                assert preads[0][0] + preads[0][1] <= decode_end, (i, kernel, preads)
            preads.clear()
            assert indexed.read_at(gz, off, READ, kernel="numpy") == text[off : off + READ]
            assert preads[0][0] + preads[0][1] > decode_end, (i, preads)
            tried += 1
        assert tried > 10

    def test_a_short_bound_still_widens(self, fastq_medium, fastq_medium_gz6, indexed, preads):
        """A damaged index whose next block checkpoint sits too early:
        the read runs out of bytes, widens its ``pread`` and serves the
        right bytes; the data it already fetched does not stop it."""
        gz, text = fastq_medium_gz6, fastq_medium
        cps = list(indexed.checkpoints)
        k = next(k for k in range(2, len(cps)) if cps[k].kind == CHECKPOINT_BLOCK)
        h = max(i for i in range(k) if cps[i].kind != CHECKPOINT_TOKEN)
        early = cps[h].bit_offset + (cps[k].bit_offset - cps[h].bit_offset) // 4
        cps[k] = dataclasses.replace(cps[k], bit_offset=early)
        bad = dataclasses.replace(indexed, checkpoints=cps)
        # From the block checkpoint before it, to just before it.
        off = cps[h].uoffset + 10
        size = cps[k].uoffset - 10 - off
        preads.clear()
        assert bad.read_at(gz, off, size) == text[off : off + size]
        # A pread that came up short, then a wider one from the same byte.
        assert any(a[0] == b[0] and b[1] > a[1] for a, b in zip(preads, preads[1:])), preads


class TestHeaderCache:
    @pytest.fixture
    def spies(self, monkeypatch):
        """Counts of block-header parses and pure decode-table builds."""
        counts = {"headers": 0, "tables": 0}

        def counting(name, fn):
            def spy(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return spy

        parse = counting("headers", read_block_header)
        monkeypatch.setattr(zran_mod, "read_block_header", parse)
        monkeypatch.setattr(
            importlib.import_module("repro.deflate.inflate"), "read_block_header", parse
        )
        monkeypatch.setattr(
            HuffmanDecoder, "_build_table", counting("tables", HuffmanDecoder._build_table)
        )
        return counts

    def test_touched_blocks_parse_no_header_and_build_no_table(
        self, fastq_medium, fastq_medium_gz6, indexed, spies
    ):
        gz, text = fastq_medium_gz6, fastq_medium
        cps = indexed.checkpoints
        # Every block starts at a checkpoint, whose header a reader keeps.
        heads = {cp.bit_offset for cp in cps if cp.kind != CHECKPOINT_TOKEN}
        assert {b.start_bit for b in _blocks(gz)} <= heads
        spies["headers"] = spies["tables"] = 0
        # Tables the index build left in the process-wide LRU would
        # hide the builds a first touch makes.
        _cached_decoder.cache_clear()
        reader = SeekableGzipReader(gz, index=indexed)
        for cp in cps:
            assert reader.pread(cp.uoffset, 16) == text[cp.uoffset : cp.uoffset + 16]
        assert reader.stats.headers_parsed == len(heads) == spies["headers"]
        assert spies["tables"] > 0
        spies["headers"] = spies["tables"] = 0
        reader.stats.reset_counters()
        for off in range(1, len(text) - READ, 7919):
            preads, inflates = reader.stats.pread_calls, reader.stats.inflate_calls
            assert reader.pread(off, READ) == text[off : off + READ], off
            # One pread per read that decodes, however many intervals
            # it decodes: none for a header.
            assert reader.stats.pread_calls - preads == (reader.stats.inflate_calls > inflates)
        assert reader.stats.inflate_calls > 100
        assert spies == {"headers": 0, "tables": 0}
        assert reader.stats.headers_parsed == 0

    @pytest.mark.parametrize("shape", ["gzip6", "sync8k"])
    def test_sequential_read_parses_each_header_once(
        self, fastq_medium, fastq_medium_gz6, indexed, shape, spies
    ):
        """``headers_parsed`` counts every parse: each block's header
        once, with every block at a checkpoint (``gzip6``) or most
        inside intervals (``sync8k``: 8 KiB blocks, whose empty
        sync-flush blocks right before a checkpoint no read decodes)."""
        gz, idx = fastq_medium_gz6, indexed
        if shape == "sync8k":
            gz = _sync_flush_gzip(fastq_medium, 8192)
            idx = build_index(gz, span=SPAN)
        blocks = len(_blocks(gz))
        spies["headers"] = 0
        reader = SeekableGzipReader(gz, index=idx)
        out = bytearray()
        while chunk := reader.read(READ):
            out += chunk
        assert out == fastq_medium
        assert reader.stats.headers_parsed == spies["headers"] <= blocks
        if shape == "gzip6":
            assert spies["headers"] == blocks

    @staticmethod
    def _corrupt(gz: bytes, cp: Checkpoint, how: str) -> bytes:
        """``gz`` with the header at ``cp`` made invalid: a reserved
        BTYPE (3 bits in), or HLIT 288 (17 bits in, past the BTYPE)."""
        bad = bytearray(gz)
        bits = (1, 2) if how == "btype" else range(3, 8)
        for b in (cp.bit_offset + k for k in bits):
            bad[b >> 3] |= 1 << (b & 7)
        return bytes(bad)

    @pytest.mark.parametrize("how", ["btype", "hlit"])
    @pytest.mark.parametrize("order", ["block_first", "token_first"])
    def test_corrupt_header_raises_alike_and_is_never_kept(
        self, fastq_medium_gz6, indexed, how, order
    ):
        cps = indexed.checkpoints
        i = next(
            i for i in range(1, len(cps) - 1)
            if cps[i].kind == CHECKPOINT_BLOCK and cps[i + 1].kind == CHECKPOINT_TOKEN
        )
        head = cps[i]
        bad = self._corrupt(fastq_medium_gz6, head, how)
        # The error a parse at the checkpoint raises, its bit offset
        # taken from the checkpoint's byte.
        with pytest.raises(BlockHeaderError) as excinfo:
            read_block_header(BitReader(bad, head.bit_offset))
        want = (BlockHeaderError, excinfo.value.bit_offset - 8 * head.byte_offset)
        assert want[1] == head.intra_byte_bit + (3 if how == "btype" else 17)
        offs = [head.uoffset + 10, cps[i + 1].uoffset + 10]
        if order == "token_first":
            offs.reverse()

        def error(off, cache):
            with pytest.raises(BlockHeaderError) as excinfo:
                indexed.read_at(bad, off, READ, cache=cache)
            return type(excinfo.value), excinfo.value.bit_offset

        for cache in (None, IntervalCache()):
            for off in offs + offs:
                assert error(off, cache) == want, (off, cache)
            if cache is not None:
                assert cache.header_indexes() == [] and cache.items() == []
        reader = SeekableGzipReader(bad, index=indexed)
        for off in offs + offs:
            with pytest.raises(BlockHeaderError) as excinfo:
                reader.pread(off, READ)
            assert excinfo.value.bit_offset == want[1]
        assert reader.stats.headers_parsed == 0

    def test_token_inside_its_header_raises_with_the_header_cached(
        self, fastq_medium_gz6, indexed
    ):
        """A hand-made index whose token checkpoint sits inside its
        block's header (20 bits in, or on its last bit): a read raises
        what it raises without a cache, with the header cached too."""
        i = next(i for i, cp in enumerate(indexed.checkpoints) if cp.kind == CHECKPOINT_TOKEN)
        reader = BitReader(fastq_medium_gz6, indexed.checkpoints[i - 1].bit_offset)
        read_block_header(reader)
        for bit in (indexed.checkpoints[i - 1].bit_offset + 20, reader.tell_bits() - 1):
            cps = list(indexed.checkpoints)
            cps[i] = dataclasses.replace(cps[i], bit_offset=bit)
            bad = dataclasses.replace(indexed, checkpoints=cps)
            off = cps[i].uoffset + 10

            def error(cache):
                with pytest.raises((RandomAccessError, DeflateError)) as excinfo:
                    bad.read_at(fastq_medium_gz6, off, READ, cache=cache)
                return type(excinfo.value), excinfo.value.bit_offset, str(excinfo.value)

            want = error(None)
            cache = IntervalCache()
            assert bad.read_at(fastq_medium_gz6, cps[i - 1].uoffset, 16, cache=cache)
            assert cache.header_indexes() == [i - 1]
            assert error(cache) == error(cache) == want

    def test_evicted_header_is_parsed_again(
        self, fastq_medium, fastq_medium_gz6, indexed, monkeypatch
    ):
        monkeypatch.setattr(zran_mod, "CACHED_HEADERS", 2)
        cps = indexed.checkpoints
        heads = [i for i, cp in enumerate(cps) if cp.kind != CHECKPOINT_TOKEN][:3]
        assert all(cps[h + 1].kind == CHECKPOINT_TOKEN for h in heads)
        reader = SeekableGzipReader(fastq_medium_gz6, index=indexed)

        def parses(i):
            off = cps[i].uoffset + 100
            before = reader.stats.headers_parsed
            assert reader.pread(off, READ) == fastq_medium[off : off + READ]
            return reader.stats.headers_parsed - before

        assert [parses(h) for h in heads] == [1, 1, 1]
        assert reader._cache.header_indexes() == heads[1:]
        # The first block's token checkpoint: its header was evicted,
        # and parsing it again evicts the least recent, the second's.
        assert parses(heads[0] + 1) == 1
        assert reader._cache.header_indexes() == [heads[2], heads[0]]
        assert parses(heads[2] + 1) == 0
        assert parses(heads[1] + 1) == 1
        reader.close()
        assert reader._cache.header_indexes() == []


def _old_history(cp: Checkpoint) -> bytes:
    """``Checkpoint.history`` as a ``flatnonzero`` scatter."""
    pos = np.flatnonzero(np.unpackbits(np.frombuffer(cp.mask, dtype=np.uint8)))
    if not len(pos):
        return b""
    out = np.zeros(WINDOW_SIZE - int(pos[0]), dtype=np.uint8)
    out[pos - pos[0]] = np.frombuffer(cp.window, dtype=np.uint8)
    return out.tobytes()


class TestHistory:
    @pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 1000, WINDOW_SIZE - 1, WINDOW_SIZE])
    def test_whole_windows(self, length):
        """v1/v2 windows, stored whole, and empty member windows."""
        window = bytes(random.Random(length).randrange(256) for _ in range(length))
        cp = Checkpoint(0, 0, window)
        assert cp.history() == _old_history(cp) == window

    @pytest.mark.parametrize("seed", range(6))
    def test_random_masks(self, seed):
        rng = np.random.default_rng(seed)
        density = (0.0005, 0.01, 0.2, 0.5, 0.9, 1.0)[seed]
        read = rng.random(WINDOW_SIZE) < density
        window = rng.integers(1, 256, int(read.sum()), dtype=np.uint8).tobytes()
        cp = Checkpoint(0, WINDOW_SIZE, window, CHECKPOINT_BLOCK, np.packbits(read).tobytes())
        assert len(cp.mask) == MASK_BYTES
        assert cp.history() == _old_history(cp)

    def test_index_checkpoints(self, indexed):
        assert all(cp.history() == _old_history(cp) for cp in indexed.checkpoints)


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
