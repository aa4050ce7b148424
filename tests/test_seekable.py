"""SeekableGzipReader: one index layer over zran / BGZF / pugz.

Covers the seek edge cases the facade must get right (offset 0, EOF,
``usize - 1``, checkpoint boundaries ±1 byte, empty members inside
multi-member files), the warm-seek cost guarantee (a seek decodes at
most ``span`` bytes, asserted by instrumenting the inflate call), the
decoded-interval cache (each byte decoded once while its interval is
cached), the closed-reader contract, the sidecar cold/warm lifecycle,
and a zran-vs-bgzf-vs-full-decode differential over the 50-stream fuzz
corpus.
"""

import gzip as stdlib_gzip
import io
import random
import sys
import threading
import zlib

import pytest

import repro.core.parallel_index as parallel_index_mod
import repro.index.zran as zran_mod
from repro.bgzf.format import bgzf_compress
from repro.core.parallel_index import pugz_build_index
from repro.deflate.gzipfmt import gzip_wrap, parse_gzip_header
from repro.deflate.inflate import inflate
from repro.errors import DeflateError, GzipFormatError, RandomAccessError
from repro.index import DEFAULT_SPAN, GzipIndex, build_index
from repro.index.seekable import SeekableGzipReader, detect_backend
from repro.index.zran import CACHED_INTERVALS
from repro.io.source import ByteSource
from repro.parallel.executor import ThreadExecutor
from tests.deflate.test_differential_fuzz import SEEDS, SHAPES, compress_shape, make_text

SPAN = 65536


def _corpus(n: int = 600_000) -> bytes:
    return make_text(3, n)  # FASTQ-like shape


@pytest.fixture(scope="module")
def text():
    return _corpus()


@pytest.fixture(scope="module")
def gz(text):
    return stdlib_gzip.compress(text, 6)


@pytest.fixture(scope="module")
def indexed(text, gz):
    return build_index(gz, span=SPAN)


class TestBackendDetection:
    def test_plain_gzip(self, gz):
        assert detect_backend(gz) == "zran"

    def test_bgzf(self, text):
        assert detect_backend(bgzf_compress(text)) == "bgzf"

    def test_not_gzip(self):
        with pytest.raises(GzipFormatError):
            detect_backend(b"PK\x03\x04 definitely a zip")


class TestSeekEdges:
    @pytest.fixture(scope="class")
    def reader(self, text, gz):
        idx = build_index(gz, span=SPAN)
        return SeekableGzipReader(gz, index=idx)

    def test_seek_zero(self, reader, text):
        reader.seek(0)
        assert reader.read(100) == text[:100]

    def test_seek_eof(self, reader, text):
        reader.seek(0, io.SEEK_END)
        assert reader.tell() == len(text)
        assert reader.read(100) == b""

    def test_seek_last_byte(self, reader, text):
        reader.seek(len(text) - 1)
        assert reader.read(100) == text[-1:]

    def test_read_straddles_eof(self, reader, text):
        assert reader.pread(len(text) - 10, 1000) == text[-10:]

    def test_seek_past_eof_reads_empty(self, reader, text):
        assert reader.pread(len(text) + 1000, 10) == b""

    def test_negative_offset_rejected(self, reader):
        with pytest.raises(RandomAccessError):
            reader.pread(-1, 10)
        with pytest.raises(RandomAccessError):
            reader.seek(-5)

    def test_checkpoint_boundaries_plus_minus_one(self, reader, text):
        cps = reader.index.checkpoints
        assert len(cps) >= 3, "corpus too small to exercise checkpoints"
        for cp in cps:
            for off in (cp.uoffset - 1, cp.uoffset, cp.uoffset + 1):
                if not 0 <= off < len(text):
                    continue
                assert reader.pread(off, 64) == text[off : off + 64], off

    def test_relative_and_end_whence(self, reader, text):
        reader.seek(1000)
        reader.seek(500, io.SEEK_CUR)
        assert reader.read(10) == text[1500:1510]
        reader.seek(-100, io.SEEK_END)
        assert reader.read() == text[-100:]


class TestMultiMember:
    @pytest.fixture(scope="class")
    def multi(self, text):
        # An empty member in the middle — uoffset must stay continuous
        # and reads must never decode across a seam with a stale window.
        blob = (
            stdlib_gzip.compress(text[:200_000], 6)
            + stdlib_gzip.compress(b"", 6)
            + stdlib_gzip.compress(text[200_000:], 6)
        )
        return blob

    def test_empty_member_mid_file(self, multi, text):
        idx = build_index(multi, span=SPAN)
        assert idx.usize == len(text)
        assert idx.members == 3
        reader = SeekableGzipReader(multi, index=idx)
        # Reads around the seam (and the empty member at it).
        for off in (199_000, 199_999, 200_000, 200_001):
            assert reader.pread(off, 2048) == text[off : off + 2048], off

    def test_read_spanning_seam(self, multi, text):
        idx = build_index(multi, span=SPAN)
        got = idx.read_at(multi, 195_000, 10_000)
        assert got == text[195_000:205_000]

    def test_full_read_matches(self, multi, text):
        reader = SeekableGzipReader(multi, n_chunks=1, span=SPAN)
        assert reader.read() == text


def _sync_flush_gzip(text: bytes, block: int = 8192) -> bytes:
    """Gzip whose DEFLATE blocks each cover <= ``block`` output bytes."""
    co = zlib.compressobj(6, zlib.DEFLATED, -15)
    parts = []
    for i in range(0, len(text), block):
        parts.append(co.compress(text[i : i + block]))
        parts.append(co.flush(zlib.Z_SYNC_FLUSH))
    parts.append(co.flush(zlib.Z_FINISH))
    return gzip_wrap(b"".join(parts), text)


class TestSpanGuarantee:
    def test_warm_seek_decodes_at_most_span(self, text, monkeypatch):
        """The O(1)-seek contract: after the index exists, a warm seek
        asks inflate for at most ``span`` output bytes (plus the bytes
        actually requested) and the decode overshoots the request by at
        most the rest of a block.  Blocks are kept under 8 KiB, so the
        index has no token checkpoints (``tests/test_index_tokens.py``
        covers blocks longer than the span)."""
        block = 8192
        span = 32768
        gz = _sync_flush_gzip(text, block)
        idx = build_index(gz, span=span)
        gaps_ok = all(
            b - a <= span
            for a, b in zip(
                [cp.uoffset for cp in idx.checkpoints],
                [cp.uoffset for cp in idx.checkpoints][1:] + [idx.usize],
            )
        )
        assert gaps_ok, "builder left a checkpoint gap wider than span"

        calls = []
        real_inflate = zran_mod.inflate

        def spy(data, **kwargs):
            result = real_inflate(data, **kwargs)
            calls.append((kwargs.get("stop_output"), len(result.data)))
            return result

        monkeypatch.setattr(zran_mod, "inflate", spy)
        reader = SeekableGzipReader(gz, index=idx)
        step = len(text) // 23
        for off in range(0, len(text), step):
            assert reader.pread(off, 1) == text[off : off + 1]
        assert calls, "no inflate calls observed"
        for stop_output, decoded in calls:
            assert stop_output is not None and stop_output <= span + 1
            assert decoded <= span + 1 + block

    @pytest.mark.parametrize(
        "shape, span", [("sync8k", 16384), ("sync8k", 65536), ("plain", 131072)]
    )
    def test_pugz_cold_start_honours_span(self, text, gz, shape, span):
        """The cold start's index is the sequential builder's at the
        requested span: gaps <= span + one block, and a warm 4 KiB read
        decodes <= span + one block — and decodes something whenever it
        touches an interval no earlier read touched (a read inside a
        touched one may be served from the decoded-interval cache)."""
        if shape == "sync8k":
            gz = _sync_flush_gzip(text, 8192)
        start, *_ = parse_gzip_header(gz)
        largest = max(
            b.out_end - b.out_start for b in inflate(gz, start_bit=8 * start).blocks
        )
        assert largest <= span  # else the floor is the block, not the span
        reader = SeekableGzipReader(gz, n_chunks=4, span=span)
        assert reader.pread(0, 16) == text[:16]
        idx = reader.index
        assert idx.span == span
        assert idx == build_index(gz, span=span)
        offs = [cp.uoffset for cp in idx.checkpoints] + [idx.usize]
        assert max(b - a for a, b in zip(offs, offs[1:])) <= span + largest
        touched = {idx.nearest_index(0)}
        for off in range(1000, len(text) - 4096, len(text) // 13):
            reader.stats.reset_counters()
            assert reader.pread(off, 4096) == text[off : off + 4096]
            assert reader.stats.decoded_bytes <= span + largest
            intervals = set(
                range(idx.nearest_index(off), idx.nearest_index(off + 4095) + 1)
            )
            if not intervals <= touched:
                assert 0 < reader.stats.decoded_bytes
            touched |= intervals

    def test_cold_start_default_span(self, text, gz):
        reader = SeekableGzipReader(gz, n_chunks=4)
        assert reader.pread(0, 16) == text[:16]
        assert reader.index.span == DEFAULT_SPAN

    def test_stats_track_decode_cost(self, gz, indexed, text):
        reader = SeekableGzipReader(gz, index=indexed)
        reader.pread(len(text) // 2, 100)
        assert reader.stats.inflate_calls == 1
        assert 0 < reader.stats.decoded_bytes <= SPAN + 300_000
        # Ranged I/O: far less compressed data than the whole file.
        assert 0 < reader.stats.compressed_bytes_read < len(gz)


class TestSidecarLifecycle:
    def test_cold_then_warm(self, tmp_path, text, gz):
        sidecar = str(tmp_path / "reads.idx")
        cold = SeekableGzipReader(gz, index_path=sidecar, n_chunks=4)
        mid = len(text) // 2
        assert cold.pread(mid, 256) == text[mid : mid + 256]
        assert cold.stats.index_builds == 1
        assert not cold.stats.index_loaded

        warm = SeekableGzipReader(gz, index_path=sidecar)
        assert warm.stats.index_loaded
        assert warm.pread(mid, 256) == text[mid : mid + 256]
        assert warm.stats.index_builds == 0

    def test_damaged_sidecar_triggers_rebuild(self, tmp_path, text, gz):
        sidecar = tmp_path / "reads.idx"
        SeekableGzipReader(gz, index_path=str(sidecar), n_chunks=4).usize
        blob = bytearray(sidecar.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        sidecar.write_bytes(bytes(blob))
        reader = SeekableGzipReader(gz, index_path=str(sidecar), n_chunks=4)
        assert not reader.stats.index_loaded
        assert reader.pread(1000, 50) == text[1000:1050]
        assert reader.stats.index_builds == 1
        # The replacement sidecar is intact again.
        assert SeekableGzipReader(gz, index_path=str(sidecar)).stats.index_loaded

    def test_pugz_cold_start_second_touch_is_checkpoint_driven(self, text, gz):
        reader = SeekableGzipReader(gz, n_chunks=4)
        mid = len(text) // 2
        assert reader.pread(mid, 128) == text[mid : mid + 128]
        assert reader.stats.index_builds == 1
        reader.stats.reset_counters()
        assert reader.pread(100, 64) == text[100:164]
        assert reader.stats.index_builds == 1  # no second build
        assert reader.stats.decoded_bytes <= reader.index.span + 300_000


class TestCorruptTrailer:
    @pytest.mark.parametrize("n_chunks", [1, 4])
    def test_cold_start_leaves_no_sidecar(self, tmp_path, gz, n_chunks):
        bad = bytearray(gz)
        bad[-8] ^= 0x01  # one CRC32 bit
        sidecar = tmp_path / "reads.idx"
        reader = SeekableGzipReader(
            bytes(bad), index_path=str(sidecar), n_chunks=n_chunks
        )
        with pytest.raises(GzipFormatError, match="CRC") as excinfo:
            reader.pread(0, 64)
        assert excinfo.value.stage == "trailer"
        assert not sidecar.exists()
        assert reader.index is None


class TestSources:
    def test_path_file_bytes_identical(self, tmp_path, text, gz, indexed):
        path = tmp_path / "reads.gz"
        path.write_bytes(gz)
        off = len(text) // 3
        expect = text[off : off + 512]
        assert SeekableGzipReader(gz, index=indexed).pread(off, 512) == expect
        assert SeekableGzipReader(str(path), index=indexed).pread(off, 512) == expect
        with open(path, "rb") as fh:
            assert SeekableGzipReader(fh, index=indexed).pread(off, 512) == expect

    def test_borrowed_file_left_open(self, tmp_path, gz):
        path = tmp_path / "reads.gz"
        path.write_bytes(gz)
        with open(path, "rb") as fh:
            src = ByteSource(fh)
            src.pread(0, 2)
            src.close()
            assert not fh.closed
            fh.seek(0)
            assert fh.read(2) == gz[:2]

    def test_bgzf_from_path(self, tmp_path, text):
        path = tmp_path / "reads.bgzf"
        path.write_bytes(bgzf_compress(text))
        reader = SeekableGzipReader(str(path))
        assert reader.backend == "bgzf"
        off = len(text) // 2
        assert reader.pread(off, 512) == text[off : off + 512]


def _blocks(gz: bytes):
    """``(start_bit, out_start, out_end)`` of every block of a
    single-member gzip, bit offsets absolute in ``gz``."""
    start, *_ = parse_gzip_header(gz)
    return [(b.start_bit, b.out_start, b.out_end) for b in inflate(gz, start_bit=8 * start).blocks]


def _read_sequentially(reader, size: int = 4096) -> bytes:
    out = bytearray()
    while chunk := reader.read(size):
        out += chunk
    return bytes(out)


class TestIntervalCache:
    """The reader decodes each byte of a cached checkpoint interval once."""

    @pytest.fixture(scope="class")
    def multi(self, text):
        return (
            stdlib_gzip.compress(text[:200_000], 6)
            + stdlib_gzip.compress(b"", 6)
            + stdlib_gzip.compress(text[200_000:], 6)
        )

    @pytest.mark.parametrize("which", ["single", "multi", "sync8k"])
    def test_sequential_reads_decode_each_byte_once(self, gz, multi, text, which):
        """Each byte is decoded once, with token checkpoints (``single``,
        ``multi``: blocks longer than the span) or without (``sync8k``):
        a decode never runs past the next checkpoint."""
        blob = {"single": gz, "multi": multi, "sync8k": _sync_flush_gzip(text, 8192)}[which]
        reader = SeekableGzipReader(blob, index=build_index(blob, span=SPAN))
        assert _read_sequentially(reader) == text
        assert reader.stats.decoded_bytes == reader.usize == len(text)
        assert reader.stats.served_bytes == len(text)

    def test_whole_read_keeps_few_bounded_entries(self, text):
        gz = _sync_flush_gzip(text, 8192)
        largest = max(end - start for _, start, end in _blocks(gz))
        reader = SeekableGzipReader(gz, index=build_index(gz, span=SPAN))
        assert reader.read() == text
        entries = reader._cache.items()
        assert 0 < len(entries) <= CACHED_INTERVALS
        for _, (data, _, _) in entries:
            assert len(data) <= SPAN + largest

    def test_scan_reads_resume_where_the_last_stopped(self, gz, indexed, text):
        # A scan of four 4 KiB reads inside one checkpoint interval: each
        # read decodes only past where the one before it stopped, inside
        # a block if need be, and a read inside what it decoded is a hit.
        cps = indexed.checkpoints
        i = next(
            i for i in range(1, len(cps) - 1) if cps[i + 1].uoffset - cps[i].uoffset > 5 * 4096
        )
        reader = SeekableGzipReader(gz, index=indexed)
        off = cps[i].uoffset + 100
        reader.seek(off)
        for n in range(1, 5):
            assert reader.read(4096) == text[off + (n - 1) * 4096 : off + n * 4096]
            assert reader.stats.inflate_calls == n
        [(index, (data, end_bit, _))] = reader._cache.items()
        assert index == i and end_bit is not None
        assert data == text[cps[i].uoffset : cps[i].uoffset + len(data)]
        # Each byte of the interval decoded once, and none far past the scan.
        assert reader.stats.decoded_bytes == len(data) < 100 + 4 * 4096 + 2048
        reader.stats.reset_counters()
        assert reader.pread(off, 4096) == text[off : off + 4096]
        assert reader.stats.inflate_calls == 0
        assert reader.stats.cache_hits == 1

    def test_lru_evicts_the_least_recent_interval(self, gz, indexed, text):
        cps = indexed.checkpoints
        assert len(cps) > CACHED_INTERVALS + 1
        reader = SeekableGzipReader(gz, index=indexed)

        def inflates(i):
            off = cps[i].uoffset
            before = reader.stats.inflate_calls
            assert reader.pread(off, 64) == text[off : off + 64]
            return reader.stats.inflate_calls - before

        # Touching CACHED_INTERVALS + 1 intervals re-decodes the first,
        # while the others are still cached.
        assert [inflates(i) for i in range(CACHED_INTERVALS + 1)] == [1] * (
            CACHED_INTERVALS + 1
        )
        assert inflates(1) == 0
        assert inflates(0) == 1
        # The hit on 1 made it more recent than 2: re-decoding 0 evicted 2.
        assert inflates(1) == 0
        assert inflates(2) == 1

    def test_corrupt_block_raises_the_same_error_and_keeps_entry(self, text):
        gz = _sync_flush_gzip(text, 8192)
        idx = build_index(gz, span=SPAN)
        cp = idx.checkpoints[1]
        nxt = idx.checkpoints[2].uoffset
        inside = [b for b in _blocks(gz) if cp.uoffset < b[1] and b[2] <= nxt]
        start_bit, out_start, _ = inside[len(inside) // 2]
        bad = bytearray(gz)
        for bit in (start_bit + 1, start_bit + 2):  # BTYPE = 11 (reserved)
            bad[bit >> 3] |= 1 << (bit & 7)
        bad = bytes(bad)
        reader = SeekableGzipReader(bad, index=idx)
        assert reader.pread(cp.uoffset, 100) == text[cp.uoffset : cp.uoffset + 100]
        [(_, entry)] = reader._cache.items()
        assert len(entry[0]) <= out_start - cp.uoffset

        def error_at(read):
            with pytest.raises(DeflateError) as excinfo:
                read(out_start + 10, 100)
            return type(excinfo.value), excinfo.value.bit_offset

        first = error_at(reader.pread)
        assert first[1] is not None
        assert error_at(reader.pread) == first
        # A decode from the checkpoint itself, with no cache, agrees.
        assert error_at(lambda off, n: idx.read_at(bad, off, n)) == first
        assert reader._cache.items() == [(1, entry)]
        reader.stats.reset_counters()
        assert reader.pread(cp.uoffset + 50, 50) == text[cp.uoffset + 50 : cp.uoffset + 100]
        assert reader.stats.cache_hits == 1

    @staticmethod
    def _concurrent_preads(gz: bytes, text: bytes) -> SeekableGzipReader:
        """4 threads x 200 seeded preads through one reader, switching
        threads every 0.1 ms."""
        reader = SeekableGzipReader(gz, index=build_index(gz, span=16384))
        failures = []

        def worker(seed):
            rng = random.Random(seed)
            for _ in range(200):
                off = rng.randrange(len(text))
                size = rng.choice((1, 100, 4096, 20_000))
                if reader.pread(off, size) != text[off : off + size]:
                    failures.append((seed, off, size))

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures
        assert reader._cache.header_indexes()
        return reader

    def test_concurrent_preads_are_byte_identical(self, text):
        self._concurrent_preads(_sync_flush_gzip(text, 8192), text)

    def test_concurrent_preads_share_headers_across_token_checkpoints(self, gz, text):
        """Blocks longer than the span: reads from token checkpoints
        take their block's header from the cache another thread filled."""
        reader = self._concurrent_preads(gz, text)
        reader.stats.reset_counters()
        for off in range(0, len(text), 7919):
            assert reader.pread(off, 4096) == text[off : off + 4096]
        assert reader.stats.headers_parsed == 0


class TestClosedReader:
    @pytest.fixture(params=["bytes", "path", "file"])
    def reader(self, request, tmp_path, gz, indexed):
        path = tmp_path / "reads.gz"
        path.write_bytes(gz)
        if request.param == "bytes":
            yield SeekableGzipReader(gz, index=indexed)
        elif request.param == "path":
            yield SeekableGzipReader(str(path), index=indexed)
        else:
            with open(path, "rb") as fh:
                yield SeekableGzipReader(fh, index=indexed)

    def test_io_after_close_raises(self, reader, text):
        assert reader.pread(1000, 10) == text[1000:1010]
        reader.close()
        assert len(reader._cache) == 0
        for op in (
            lambda: reader.read(5),
            lambda: reader.read(),
            lambda: reader.pread(0, 5),
            lambda: reader.readinto(bytearray(5)),
            lambda: reader.seek(0),
        ):
            with pytest.raises(ValueError, match="closed file"):
                op()

    @pytest.mark.parametrize("kind", ["bytes", "path"])
    def test_closed_byte_source_raises(self, tmp_path, gz, kind):
        path = tmp_path / "reads.gz"
        path.write_bytes(gz)
        src = ByteSource(gz if kind == "bytes" else str(path))
        assert src.pread(0, 2) == gz[:2]
        src.close()
        with pytest.raises(RandomAccessError, match="closed"):
            src.pread(0, 2)
        with pytest.raises(RandomAccessError, match="closed"):
            src.read_all()
        assert src._fh is None  # a path is not silently reopened


class TestColdStartChunks:
    """``n_chunks=None`` plans one chunk per executor worker."""

    @pytest.fixture
    def planned(self, monkeypatch):
        seen = []
        real = parallel_index_mod.pugz_decompress_payload

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            seen.append((args[3], len(kwargs["report"].chunks)))
            return out

        monkeypatch.setattr(parallel_index_mod, "pugz_decompress_payload", spy)
        return seen

    def test_serial_plans_one_chunk(self, gz, text, planned):
        out, idx = pugz_build_index(gz)
        assert out == text
        assert planned == [(1, 1)]
        assert idx == build_index(gz)

    def test_thread_executor_plans_its_parallelism(self, gz, text, planned):
        with ThreadExecutor(3) as ex:
            out, _ = pugz_build_index(gz, executor=ex)
            assert planned == [(ex.parallelism, 3)]
        assert out == text

    def test_reader_default_cold_start_is_one_chunk(self, gz, text, planned):
        reader = SeekableGzipReader(gz)
        assert reader.pread(0, 16) == text[:16]
        assert planned == [(1, 1)]


class TestDifferentialCorpus:
    """zran vs bgzf vs full decode over the 50-stream fuzz corpus."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_all_backends_agree(self, seed, shape):
        body = make_text(seed, n=24_000)
        payload = compress_shape(body, shape)
        gz_blob = gzip_wrap(payload, body)
        bg_blob = bgzf_compress(body)

        zr = SeekableGzipReader(gz_blob, n_chunks=1, span=8192)
        bg = SeekableGzipReader(bg_blob)
        assert zr.backend == "zran" and bg.backend == "bgzf"
        full = zlib.decompress(payload, -15)
        assert full == body
        probes = [0, 1, len(body) // 2, len(body) - 257, len(body) - 1]
        for off in probes:
            expect = body[off : off + 256]
            assert zr.pread(off, 256) == expect, (seed, shape, off)
            assert bg.pread(off, 256) == expect, (seed, shape, off)
        assert zr.read() == body
        bg.seek(0)
        assert bg.read() == body
