"""BGZF random access and parallel decompression.

With block boundaries explicit in the format, both of the paper's hard
problems become trivial for BGZF files — which is exactly the paper's
point about why the format exists, and why pugz matters for the
majority of archive files that are *not* blocked.
"""

from __future__ import annotations

from repro.bgzf.format import (
    BgzfBlock,
    _inflate_member,
    make_virtual_offset,
    read_block,
    scan_blocks,
    split_virtual_offset,
)
from repro.errors import RandomAccessError
from repro.io.source import ByteSource
from repro.parallel.executor import Executor, owned_executor

__all__ = ["BgzfReader", "bgzf_decompress_parallel"]


class BgzfReader:
    """Random-access reader over a BGZF file.

    Provides uncompressed-offset addressing (via the cumulative block
    table) and virtual-offset addressing (the htslib convention).
    ``data`` may be the file as bytes (the historical signature), a
    filesystem path, a seekable binary file object, or a
    :class:`~repro.io.source.ByteSource` — non-bytes sources are read
    one block at a time with ranged I/O, never fully materialised.
    """

    def __init__(
        self,
        data,
        verify: bool = True,
        blocks: list[BgzfBlock] | None = None,
    ) -> None:
        """``blocks`` may supply a pre-scanned block table (e.g. from a
        persisted sidecar via
        :func:`repro.bgzf.format.load_or_scan_blocks`), skipping the
        O(#blocks) header walk on open."""
        self._source = ByteSource.wrap(data)
        self._verify = verify
        if blocks is None:
            blocks = scan_blocks(self._source)
        self.blocks: list[BgzfBlock] = [b for b in blocks if not b.is_eof]
        self._starts = []  # uncompressed start of each block
        total = 0
        for b in self.blocks:
            self._starts.append(total)
            total += b.usize
        self._total = total
        self._cache: tuple[int, bytes] | None = None

    def __len__(self) -> int:
        """Total uncompressed size."""
        return self._total

    def _block_bytes(self, index: int) -> bytes:
        if self._cache is not None and self._cache[0] == index:
            return self._cache[1]
        out = read_block(self._source, self.blocks[index], self._verify)
        self._cache = (index, out)
        return out

    def _find_block(self, uoffset: int) -> int:
        """Index of the block containing uncompressed offset ``uoffset``."""
        if not 0 <= uoffset < self._total:
            raise RandomAccessError(
                f"offset {uoffset} outside uncompressed size {self._total}",
                stage="bgzf",
            )
        lo, hi = 0, len(self.blocks) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._starts[mid] <= uoffset:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def read_at(self, uoffset: int, size: int) -> bytes:
        """Read ``size`` bytes at an uncompressed offset — O(blocks hit)."""
        if size < 0:
            raise ValueError("size must be non-negative")
        out = bytearray()
        remaining = size
        while remaining > 0 and uoffset < self._total:
            i = self._find_block(uoffset)
            block_data = self._block_bytes(i)
            skip = uoffset - self._starts[i]
            take = block_data[skip : skip + remaining]
            out += take
            uoffset += len(take)
            remaining -= len(take)
        return bytes(out)

    def virtual_offset_for(self, uoffset: int) -> int:
        """Virtual offset addressing byte ``uoffset``."""
        i = self._find_block(uoffset)
        return make_virtual_offset(self.blocks[i].coffset, uoffset - self._starts[i])

    def read_at_virtual(self, voffset: int, size: int) -> bytes:
        """Read from a BGZF virtual offset."""
        coffset, skip = split_virtual_offset(voffset)
        index = next(
            (i for i, b in enumerate(self.blocks) if b.coffset == coffset), None
        )
        if index is None:
            raise RandomAccessError(f"no block at compressed offset {coffset}", stage="bgzf")
        return self.read_at(self._starts[index] + skip, size)


def _read_one(args) -> bytes:
    member, verify = args
    return _inflate_member(member, verify)


def bgzf_decompress_parallel(
    data: bytes,
    executor: Executor | str = "serial",
    n_workers: int = 4,
    verify: bool = True,
) -> bytes:
    """Decompress a BGZF file with one task per block.

    The blocked-format counterpart of pugz: no probing, no markers, no
    second pass — the comparison benchmark quantifies what the format
    buys (and what its extra per-block overhead costs in ratio).  Each
    task carries only its own block's compressed bytes.
    """
    src = ByteSource.wrap(data)
    members = [src.pread(b.coffset, b.csize) for b in scan_blocks(src) if not b.is_eof]
    with owned_executor(executor, n_workers) as ex:
        parts = ex.map(_read_one, [(member, verify) for member in members])
    return b"".join(parts)
