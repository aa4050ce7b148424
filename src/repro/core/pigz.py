"""pigz-style parallel gzip *compression*.

Section I of the paper: "There exist parallel programs for speeding-up
gzip compression, e.g. pigz.  The underlying compression algorithm of
gzip, DEFLATE, easily lends itself to processing of blocks of data
concurrently."  This module demonstrates exactly how, completing the
compression side of the story:

* the input is cut into fixed-size chunks;
* each chunk is LZ77-parsed **with the previous chunk's last 32 KiB as
  a preset dictionary** (so cross-chunk matches survive — pigz's
  trick, zlib's ``deflateSetDictionary``);
* every chunk but the last ends with an empty stored block
  (``Z_SYNC_FLUSH``), which byte-aligns its fragment so the fragments
  concatenate into one valid DEFLATE stream;
* a single gzip header/trailer wraps the whole file.

The output is a perfectly ordinary gzip file — and, notably, one whose
block structure is what makes the paper's *decompression* side hard:
no index, no member boundaries, back-references across chunk joints.
"""

from __future__ import annotations

from repro.deflate.constants import WINDOW_SIZE
from repro.deflate.crc32 import crc32, crc32_combine
from repro.deflate.deflate import compress_tokens
from repro.deflate.gzipfmt import gzip_wrap
from repro.deflate.lz77 import parse_lz77
from repro.parallel.executor import Executor, owned_executor

__all__ = ["pigz_compress", "DEFAULT_CHUNK_SIZE"]

#: pigz's default chunk size (128 KiB).
DEFAULT_CHUNK_SIZE = 131072


def _compress_chunk(args) -> tuple[int, bytes, int, int]:
    """Worker: compress one chunk against its dictionary.

    Returns ``(index, fragment, crc, length)`` — the per-chunk CRC
    feeds the parallel crc32_combine at the end.
    """
    index, chunk, dictionary, level, is_last = args
    tokens = parse_lz77(chunk, level, dictionary=dictionary)
    fragment = compress_tokens(
        chunk, tokens, bfinal=is_last, sync_flush=not is_last
    )
    return index, fragment, crc32(chunk), len(chunk)


def pigz_compress(
    data: bytes,
    level: int = 6,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    executor: Executor | str = "serial",
    n_workers: int = 4,
    mtime: int = 0,
    filename: bytes | None = None,
) -> bytes:
    """Compress ``data`` into a gzip file, chunk-parallel.

    The result is byte-compatible with every gzip reader; compression
    ratio is within a fraction of a percent of the sequential encoder
    (only the sync-flush stored blocks and slightly shallower chunk-
    boundary history are lost).
    """
    if chunk_size < 1024:
        raise ValueError("chunk_size must be >= 1 KiB")
    data = bytes(data)

    jobs = []
    n = len(data)
    starts = list(range(0, n, chunk_size)) or [0]
    for k, start in enumerate(starts):
        chunk = data[start : start + chunk_size]
        dictionary = data[max(0, start - WINDOW_SIZE) : start]
        jobs.append((k, chunk, dictionary, level, k == len(starts) - 1))

    with owned_executor(executor, n_workers) as ex:
        results = ex.map(_compress_chunk, jobs)
    results.sort(key=lambda r: r[0])
    payload = b"".join(r[1] for r in results)

    # Parallel-friendly trailer: combine the per-chunk CRCs.
    combined = results[0][2]
    for _, _, c, length in results[1:]:
        combined = crc32_combine(combined, c, length)

    header_tail = gzip_wrap(payload, b"", mtime=mtime, filename=filename,
                            level_hint=level)
    # gzip_wrap computed CRC/ISIZE for b""; rebuild the trailer with the
    # combined values instead of re-scanning the input.
    import struct

    trailer = struct.pack("<II", combined, n & 0xFFFFFFFF)
    return header_tail[:-8] + trailer
