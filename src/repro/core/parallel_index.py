"""Parallel construction of a random-access index — a synthesis.

Ref [11]'s checkpoint index requires "an initial sequential
decompression of the whole file".  But the two-pass decompressor
produces, as a by-product, everything an index needs: pass 1 decodes
every DEFLATE block and records where each starts (its bit offset and
output offset) and which window positions it reads (its reach: a
match's distance and length are the same in the marker domain), and
pass 2 resolves the whole output, so every window byte is known.  So
on a multi-core machine the index can be built at pugz speed rather
than gunzip speed, with zero extra decompression work.

Checkpoints are placed by the same ``span`` rule as the sequential
:func:`repro.index.zran.build_index`
(:func:`~repro.index.zran.block_checkpoints`), over the block
boundaries pass 1 found — so the index is identical to the sequential
builder's at the same ``span``, whatever the chunk count.

This is the "cold start" path of
:class:`repro.index.seekable.SeekableGzipReader`: the first touch of an
un-indexed plain gzip file runs the pugz first pass anyway, and this
module turns that pass into checkpoints — so the *second* touch is
already checkpoint-driven.

Multi-member ("blocked") files are walked member by member; every
member start becomes a ``"member"`` checkpoint (empty context by
construction) and ``uoffset`` stays continuous across boundaries, so
the resulting index addresses the file as one uncompressed stream.

This module glues :mod:`repro.core.pugz` to :mod:`repro.index`.
"""

from __future__ import annotations

import numpy as np

from repro.core.pugz import PugzReport, pugz_decompress_payload
from repro.deflate.gzipfmt import check_trailer, parse_gzip_header
from repro.errors import GzipFormatError
from repro.index.zran import (
    CHECKPOINT_MEMBER,
    DEFAULT_SPAN,
    Checkpoint,
    GzipIndex,
    block_checkpoints,
)
from repro.io.source import ByteSource
from repro.parallel.executor import Executor, owned_executor
from repro.units import BitOffset, ByteOffset

__all__ = ["pugz_build_index"]


def pugz_build_index(
    gz_data,
    n_chunks: int | None = None,
    executor: Executor | str = "serial",
    kernel: str | None = None,
    span: int = DEFAULT_SPAN,
) -> tuple[bytes, GzipIndex]:
    """Decompress in parallel and return ``(data, index)`` together.

    The index has checkpoints at most ``span`` output bytes apart,
    placed at the block boundaries pass 1 decoded; each stores the
    window bytes its interval reads (pass 1 records every block's
    window reach beside its block table), taken from the decompressed
    output, which the caller gets anyway.  It equals
    ``build_index(gz_data, span=span)`` for any ``n_chunks``.
    ``n_chunks=None`` plans one chunk per worker of the executor
    (:attr:`~repro.parallel.executor.Executor.parallelism`): a serial
    build is then one chunk, with no block-start search and no marker
    pass.
    ``gz_data`` may be bytes, a path, a binary file object, or a
    :class:`~repro.io.source.ByteSource` (the build decodes every byte
    once by definition, so the whole stream is read either way).  Each
    member's CRC32 and ISIZE are checked before the index is built; a
    mismatch raises :class:`~repro.errors.GzipFormatError`
    (``stage="trailer"``).
    """
    if span <= 0:
        raise ValueError("span must be positive")
    src = ByteSource.wrap(gz_data)
    data = src.read_all()
    if not data:
        raise GzipFormatError("empty input", bit_offset=0, stage="parallel_index")

    out_parts: list[bytes] = []
    checkpoints: list[Checkpoint] = []
    uoffset = 0
    offset = 0
    n = len(data)
    with owned_executor(executor, n_chunks) as ex:
        if n_chunks is None:
            n_chunks = ex.parallelism
        report = PugzReport(n_chunks_requested=n_chunks)
        while offset < n:
            payload_start, *_ = parse_gzip_header(data, offset)
            checkpoints.append(
                Checkpoint(
                    bit_offset=BitOffset(8 * payload_start),
                    uoffset=ByteOffset(uoffset),
                    window=b"",
                    kind=CHECKPOINT_MEMBER,
                )
            )
            first_chunk = len(report.chunks)
            member_out = pugz_decompress_payload(
                data,
                8 * payload_start,
                8 * (n - 8),
                n_chunks,
                ex,
                report=report,
                kernel=kernel,
                capture_reach=True,
            )
            payload_end = (report.end_bit + 7) // 8
            check_trailer(data, payload_end, member_out)
            # Pass-1 block tables are chunk-relative: shift each chunk's
            # output columns by where that chunk starts in the member.
            tables = report.chunk_blocks[first_chunk:]
            sizes = report.chunk_output_sizes[first_chunk:]
            chunk_starts = np.cumsum([0, *sizes[:-1]], dtype=np.int64)
            blocks = np.concatenate(
                [t + (0, rel, rel) for t, rel in zip(tables, chunk_starts)]
            )
            reach = np.concatenate(report.chunk_reach[first_chunk:])
            checkpoints += block_checkpoints(
                blocks.tolist(), reach, member_out, uoffset, span
            )
            uoffset += len(member_out)
            out_parts.append(member_out)
            offset = payload_end + 8

    out = b"".join(out_parts)
    index = GzipIndex(checkpoints=checkpoints, usize=len(out), span=span, csize=n)
    return out, index
