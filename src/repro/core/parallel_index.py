"""Parallel construction of a random-access index — a synthesis.

Ref [11]'s checkpoint index requires "an initial sequential
decompression of the whole file".  But the two-pass decompressor
produces, as a by-product, everything an index needs: pass 1 decodes
every DEFLATE block and records where each starts (its bit offset and
output offset), where a block longer than the span is cut at token
starts, and which window positions each piece reads (its reach: a
match's distance and length are the same in the marker domain), and
pass 2 resolves the whole output, so every window byte is known.  So
on a multi-core machine the index can be built at pugz speed rather
than gunzip speed, with zero extra decompression work.

Checkpoints are placed by one ``span`` rule
(:func:`~repro.index.zran.block_checkpoints`) over the blocks and
token cuts pass 1 found — so the index is the same whatever the chunk
count.  The sequential :func:`repro.index.zran.build_index` is this
builder's one-chunk serial case (:func:`index_members` without the
output kept).

This is the "cold start" path of
:class:`repro.index.seekable.SeekableGzipReader`: the first touch of an
un-indexed plain gzip file runs the pugz first pass anyway, and this
module turns that pass into checkpoints — so the *second* touch is
already checkpoint-driven.

Multi-member ("blocked") files are walked member by member
(:func:`~repro.deflate.gzipfmt.iter_members`); every
member start becomes a ``"member"`` checkpoint (empty context by
construction) and ``uoffset`` stays continuous across boundaries, so
the resulting index addresses the file as one uncompressed stream.

This module glues :mod:`repro.core.pugz` to :mod:`repro.index`.
"""

from __future__ import annotations

import numpy as np

from repro.core.pugz import PugzReport, pugz_decompress_payload
from repro.deflate.crc32 import crc32
from repro.deflate.gzipfmt import iter_members
from repro.index.zran import (
    CHECKPOINT_MEMBER,
    DEFAULT_SPAN,
    Checkpoint,
    GzipIndex,
    block_checkpoints,
)
from repro.io.source import ByteSource
from repro.parallel.executor import Executor, owned_executor
from repro.units import ByteOffset

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
    placed at the block boundaries and token cuts pass 1 decoded; each
    stores the window bytes its interval reads (pass 1 records every
    piece's window reach beside its block table), taken from the
    decompressed output, which the caller gets anyway.  It is the same
    for any ``n_chunks``: :func:`repro.index.zran.build_index` is the
    one-chunk serial build.
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
    parts: list[bytes] = []
    index = index_members(gz_data, n_chunks, executor, kernel, span, parts.append)
    return b"".join(parts), index


def index_members(
    gz_data, n_chunks: int | None, executor: Executor | str, kernel: str | None,
    span: int, keep=None,
) -> GzipIndex:
    """Build the index of :func:`pugz_build_index` one member at a time,
    handing each member's output to ``keep`` (when given) and then
    dropping it, so only one member's output is held at once."""
    if span <= 0:
        raise ValueError("span must be positive")
    data = ByteSource.wrap(gz_data).read_all()
    members = iter_members(data)
    checkpoints: list[Checkpoint] = []
    unions: list[np.ndarray] = []
    uoffset = 0
    n = len(data)
    with owned_executor(executor, n_chunks) as ex:
        if n_chunks is None:
            n_chunks = ex.parallelism
        for member in members:
            report = PugzReport(n_chunks_requested=n_chunks)
            member_out = pugz_decompress_payload(
                data,
                member.payload_start_bit,
                8 * (n - 8),
                n_chunks,
                ex,
                report=report,
                kernel=kernel,
                reach_span=span,
            )
            member.finish(report.end_bit, report.final_seen, crc32(member_out), len(member_out))
            checkpoints.append(
                Checkpoint(
                    bit_offset=member.payload_start_bit,
                    uoffset=ByteOffset(uoffset),
                    window=b"",
                    kind=CHECKPOINT_MEMBER,
                )
            )
            # Pass-1 piece tables are chunk-relative: shift each chunk's
            # output columns by where that chunk starts in the member.
            tables = report.chunk_pieces
            sizes = report.chunk_output_sizes
            chunk_starts = np.cumsum([0, *sizes[:-1]], dtype=np.int64)
            pieces = np.concatenate(
                [t + (0, rel, rel, 0) for (t, _), rel in zip(tables, chunk_starts)]
            )
            reach = tables[0][1] if len(tables) == 1 else np.concatenate([r for _, r in tables])
            member_checkpoints, union = block_checkpoints(pieces, reach, member_out, uoffset, span)
            checkpoints += member_checkpoints
            unions.append(union)
            uoffset += len(member_out)
            if keep is not None:
                keep(member_out)
    index = GzipIndex(checkpoints=checkpoints, usize=uoffset, span=span, csize=n)
    # No window reaches across a member start, so the members' unions
    # in order are the index's.
    union = unions[0] if len(unions) == 1 else np.concatenate(unions)
    index.union = (tuple(checkpoints), union)
    return index
