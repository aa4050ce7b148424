"""BGZF: blocked gzip (the SAMtools/HTSlib format, paper ref [12]).

The paper's related work: ``tabix``/``bgzip`` create "blocked files that
are indexed and gzip-compatible" — a sequence of independent gzip
members of at most 64 KiB of input each, every member carrying its own
compressed size in a ``BC`` extra field, terminated by a fixed EOF
member.  Any gzip reader decompresses a BGZF file; a BGZF-aware reader
gets free random access and trivially parallel decompression — the
contrast that motivates pugz (most archive files are *not* blocked).

This module implements the format from scratch on top of our DEFLATE
codec: writer, reader, virtual offsets (``coffset << 16 | uoffset``)
and the EOF sentinel.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.deflate.constants import GZIP_MAGIC
from repro.deflate.crc32 import crc32
from repro.deflate.deflate import deflate_compress
from repro.deflate.inflate import inflate
from repro.errors import GzipFormatError, IndexIntegrityError
from repro.index.integrity import atomic_write_bytes, seal, unseal
from repro.io.source import ByteSource

__all__ = [
    "BGZF_EOF",
    "MAX_BLOCK_INPUT",
    "BgzfBlock",
    "bgzf_compress",
    "bgzf_decompress",
    "scan_blocks",
    "read_block",
    "make_virtual_offset",
    "split_virtual_offset",
    "blocks_to_bytes",
    "blocks_from_bytes",
    "save_block_index",
    "load_block_index",
    "load_or_scan_blocks",
]

#: Largest input chunk per BGZF block (the format caps BSIZE at 2^16).
MAX_BLOCK_INPUT = 65280

#: The fixed 28-byte empty block that terminates every BGZF file.
BGZF_EOF = bytes.fromhex(
    "1f8b08040000000000ff0600424302001b0003000000000000000000"
)

_XLEN_BC = b"\x42\x43\x02\x00"  # SI1='B', SI2='C', SLEN=2


@dataclass(frozen=True)
class BgzfBlock:
    """One BGZF member located within a file."""

    #: Byte offset of the member's gzip header.
    coffset: int
    #: Total compressed size of the member (the BSIZE field + 1).
    csize: int
    #: Uncompressed payload size (ISIZE).
    usize: int

    @property
    def is_eof(self) -> bool:
        return self.usize == 0


def make_virtual_offset(coffset: int, uoffset: int) -> int:
    """BGZF virtual offset: compressed block offset + in-block offset."""
    if not 0 <= uoffset < 65536:
        raise ValueError("uoffset must fit in 16 bits")
    if coffset < 0 or coffset >= 1 << 48:
        raise ValueError("coffset must fit in 48 bits")
    return (coffset << 16) | uoffset


def split_virtual_offset(voffset: int) -> tuple[int, int]:
    """Inverse of :func:`make_virtual_offset`."""
    return voffset >> 16, voffset & 0xFFFF


def _block_bytes(chunk: bytes, level: int) -> bytes:
    """Frame one <= 64 KiB chunk as a BGZF member."""
    payload = deflate_compress(chunk, level)
    bsize = 12 + 6 + len(payload) + 8  # header+extra, payload, trailer
    if bsize > 65536:
        # Incompressible pathological chunk: store it instead.
        payload = deflate_compress(chunk, 0)
        bsize = 12 + 6 + len(payload) + 8
        if bsize > 65536:
            raise GzipFormatError("chunk does not fit a BGZF block even stored", stage="bgzf")
    header = (
        GZIP_MAGIC + b"\x08\x04"    # magic, deflate, FEXTRA
        + b"\x00\x00\x00\x00"        # mtime
        + b"\x00\xff"                # XFL, OS
        + b"\x06\x00"                # XLEN = 6
        + _XLEN_BC
        + struct.pack("<H", bsize - 1)
    )
    trailer = struct.pack("<II", crc32(chunk), len(chunk))
    return header + payload + trailer


def bgzf_compress(data: bytes, level: int = 6, block_input: int = MAX_BLOCK_INPUT) -> bytes:
    """Compress ``data`` into a BGZF file (with the EOF sentinel)."""
    if not 1 <= block_input <= MAX_BLOCK_INPUT:
        raise ValueError(f"block_input must be in [1, {MAX_BLOCK_INPUT}]")
    out = bytearray()
    for start in range(0, len(data), block_input):
        out += _block_bytes(data[start : start + block_input], level)
    out += BGZF_EOF
    return bytes(out)


def _parse_bsize(header: bytes, offset: int) -> int:
    """Read the BC extra field of ``header`` (a member's fixed header
    and its whole extra field; the member starts at file ``offset``);
    returns csize."""
    pos = 12
    end = len(header)
    while pos + 4 <= end:
        si1, si2, slen = header[pos], header[pos + 1], struct.unpack_from("<H", header, pos + 2)[0]
        if si1 == 0x42 and si2 == 0x43 and slen == 2 and pos + 6 <= end:
            return struct.unpack_from("<H", header, pos + 4)[0] + 1
        pos += 4 + slen
    raise GzipFormatError(f"BGZF member at {offset} lacks the BC field", stage="bgzf")


def scan_blocks(source) -> list[BgzfBlock]:
    """Enumerate the blocks of a BGZF file without decompressing them.

    This is the structural advantage over plain gzip: block boundaries
    come from the BC size fields in O(#blocks), no bit probing needed.
    The walk hops header to header with ``pread``, so only one
    member's header is held at a time.  ``source`` may be bytes, a
    path, a binary file object, or a :class:`~repro.io.source.ByteSource`.
    """
    src = ByteSource.wrap(source)
    blocks = []
    n = src.size()
    offset = 0
    while offset < n:
        head = src.pread(offset, 12)
        if head[:4] != GZIP_MAGIC + b"\x08\x04":
            raise GzipFormatError(f"not a BGZF member at offset {offset}", stage="bgzf")
        if len(head) < 12:
            raise GzipFormatError("truncated BGZF block", stage="bgzf")
        xlen = struct.unpack_from("<H", head, 10)[0]
        extra = src.pread(offset + 12, xlen)
        if len(extra) < xlen:
            raise GzipFormatError("truncated BGZF block", stage="bgzf")
        csize = _parse_bsize(head + extra, offset)
        if offset + csize > n:
            raise GzipFormatError("truncated BGZF block", stage="bgzf")
        isize = struct.unpack("<I", src.pread(offset + csize - 4, 4))[0]
        blocks.append(BgzfBlock(coffset=offset, csize=csize, usize=isize))
        offset += csize
    if not blocks or not blocks[-1].is_eof:
        raise GzipFormatError("BGZF file lacks the EOF sentinel block", stage="bgzf")
    return blocks


def read_block(source, block: BgzfBlock, verify: bool = True) -> bytes:
    """Decompress one block independently (the random-access primitive).

    Reads exactly the block's ``csize`` compressed bytes at its
    ``coffset`` from ``source`` (bytes, a path, a binary file object,
    or a :class:`~repro.io.source.ByteSource`).
    """
    member = ByteSource.wrap(source).pread(block.coffset, block.csize)
    if len(member) < block.csize:
        raise GzipFormatError("truncated BGZF block", stage="bgzf")
    return _inflate_member(member, verify)


def _inflate_member(member: bytes, verify: bool = True) -> bytes:
    """Decompress one BGZF member given as exactly its own bytes,
    checking its CRC32 and ISIZE trailer when ``verify``."""
    xlen = struct.unpack_from("<H", member, 10)[0]
    out = inflate(member, start_bit=8 * (12 + xlen)).data
    if verify:
        stored_crc, stored_isize = struct.unpack_from("<II", member, len(member) - 8)
        if stored_isize != len(out):
            raise GzipFormatError("BGZF block ISIZE mismatch", stage="bgzf")
        if stored_crc != crc32(out):
            raise GzipFormatError("BGZF block CRC mismatch", stage="bgzf")
    return out


def bgzf_decompress(data: bytes, verify: bool = True) -> bytes:
    """Decompress a whole BGZF file (sequentially)."""
    src = ByteSource.wrap(data)
    return b"".join(read_block(src, b, verify) for b in scan_blocks(src) if not b.is_eof)


# -- block-table persistence (crash-safe sidecar) -------------------------

_INDEX_KIND = b"BGZF"
_BLOCK_STRUCT = struct.Struct("<QII")  # coffset, csize, usize


def blocks_to_bytes(blocks: list[BgzfBlock]) -> bytes:
    """Serialise a block table (the scan result worth caching for huge
    files: O(#blocks) structs instead of re-walking the BC fields)."""
    out = bytearray(struct.pack("<I", len(blocks)))
    for b in blocks:
        out += _BLOCK_STRUCT.pack(b.coffset, b.csize, b.usize)
    return bytes(out)


def blocks_from_bytes(payload: bytes) -> list[BgzfBlock]:
    """Inverse of :func:`blocks_to_bytes` (integrity-checked)."""
    try:
        (n,) = struct.unpack_from("<I", payload, 0)
        expected = 4 + n * _BLOCK_STRUCT.size
        if len(payload) != expected:
            raise IndexIntegrityError(
                f"BGZF block table payload is {len(payload)} bytes, "
                f"expected {expected} for {n} blocks",
                stage="bgzf",
            )
        return [
            BgzfBlock(*_BLOCK_STRUCT.unpack_from(payload, 4 + i * _BLOCK_STRUCT.size))
            for i in range(n)
        ]
    except struct.error as exc:
        raise IndexIntegrityError(
            f"malformed BGZF block table: {exc}", stage="bgzf"
        ) from exc


def save_block_index(path: str, blocks: list[BgzfBlock]) -> None:
    """Persist a block table crash-safely (sealed + atomic rename)."""
    atomic_write_bytes(path, seal(_INDEX_KIND, blocks_to_bytes(blocks)))


def load_block_index(path: str) -> list[BgzfBlock]:
    """Load a persisted block table; raises
    :class:`~repro.errors.IndexIntegrityError` if damaged."""
    with open(path, "rb") as fh:
        blob = fh.read()
    return blocks_from_bytes(unseal(blob, _INDEX_KIND))


def load_or_scan_blocks(path: str, data: bytes) -> tuple[list[BgzfBlock], bool]:
    """Load the block table at ``path``, re-scanning ``data`` and
    atomically replacing the sidecar if it is missing or damaged.

    Returns ``(blocks, rebuilt)``.
    """
    try:
        return load_block_index(path), False
    except (FileNotFoundError, IndexIntegrityError):
        blocks = scan_blocks(data)
        save_block_index(path, blocks)
        return blocks, True
