"""gzip (RFC 1952) and zlib (RFC 1950) container framing.

The parallel decompressor operates on the *raw DEFLATE payload* inside
a gzip member; this module locates that payload (:func:`member_payload`),
builds and verifies containers around our own compressor/decompressor,
and understands multi-member ("blocked") gzip files — the bgzip-style
files the paper's related-work section discusses.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.deflate.adler import adler32
from repro.deflate.constants import GZIP_MAGIC as _GZIP_MAGIC
from repro.deflate.crc32 import crc32
from repro.deflate.inflate import InflateResult, inflate
from repro.errors import GzipFormatError
from repro.units import BitOffset, ByteOffset

__all__ = [
    "GzipMember",
    "parse_gzip_header",
    "gzip_wrap",
    "gzip_unwrap",
    "check_trailer",
    "split_members",
    "member_payload",
    "zlib_wrap",
    "zlib_unwrap",
]

_CM_DEFLATE = 8

FTEXT = 1
FHCRC = 2
FEXTRA = 4
FNAME = 8
FCOMMENT = 16


@dataclass
class GzipMember:
    """One member of a gzip file.

    ``payload_start``/``payload_end`` delimit the raw DEFLATE stream in
    bytes; ``crc`` and ``isize`` are the trailer fields.
    """

    header_start: int
    payload_start: int
    payload_end: int
    member_end: int
    crc: int
    isize: int
    flags: int = 0
    mtime: int = 0
    filename: bytes | None = None
    comment: bytes | None = None

    @property
    def payload_start_bit(self) -> BitOffset:
        """Bit offset of the first DEFLATE block header."""
        return BitOffset(8 * self.payload_start)


def parse_gzip_header(data: bytes, offset: ByteOffset = ByteOffset(0)) -> tuple[int, int, int, bytes | None, bytes | None]:
    """Parse one gzip member header at ``offset``.

    Returns ``(payload_start, flags, mtime, filename, comment)``.
    """
    if len(data) - offset < 10:
        raise GzipFormatError(
            "truncated gzip header", bit_offset=8 * offset, stage="container"
        )
    if data[offset : offset + 2] != _GZIP_MAGIC:
        raise GzipFormatError(
            f"bad gzip magic {data[offset:offset+2]!r} at offset {offset}",
            bit_offset=8 * offset,
            stage="container",
        )
    cm = data[offset + 2]
    if cm != _CM_DEFLATE:
        raise GzipFormatError(
            f"unsupported compression method {cm}",
            bit_offset=8 * (offset + 2), stage="container",
        )
    flags = data[offset + 3]
    if flags & 0xE0:
        raise GzipFormatError(
            f"reserved FLG bits set: {flags:#04x}",
            bit_offset=8 * (offset + 3), stage="container",
        )
    mtime = struct.unpack_from("<I", data, offset + 4)[0]
    pos = offset + 10

    if flags & FEXTRA:
        if len(data) - pos < 2:
            raise GzipFormatError(
                "truncated FEXTRA length", bit_offset=8 * pos, stage="container"
            )
        xlen = struct.unpack_from("<H", data, pos)[0]
        pos += 2 + xlen
        if pos > len(data):
            raise GzipFormatError(
                "truncated FEXTRA field", bit_offset=8 * pos, stage="container"
            )

    filename = None
    if flags & FNAME:
        end = data.find(b"\x00", pos)
        if end < 0:
            raise GzipFormatError(
                "unterminated FNAME field", bit_offset=8 * pos, stage="container"
            )
        filename = bytes(data[pos:end])
        pos = end + 1

    comment = None
    if flags & FCOMMENT:
        end = data.find(b"\x00", pos)
        if end < 0:
            raise GzipFormatError(
                "unterminated FCOMMENT field", bit_offset=8 * pos, stage="container"
            )
        comment = bytes(data[pos:end])
        pos = end + 1

    if flags & FHCRC:
        if len(data) - pos < 2:
            raise GzipFormatError(
                "truncated FHCRC field", bit_offset=8 * pos, stage="container"
            )
        stored = struct.unpack_from("<H", data, pos)[0]
        computed = crc32(bytes(data[offset:pos])) & 0xFFFF
        if stored != computed:
            raise GzipFormatError(
                f"header CRC mismatch: stored {stored:#06x}, computed {computed:#06x}",
                bit_offset=8 * pos,
                stage="container",
            )
        pos += 2

    return pos, flags, mtime, filename, comment


def gzip_wrap(
    deflate_payload: bytes,
    uncompressed: bytes,
    mtime: int = 0,
    filename: bytes | None = None,
    level_hint: int = 6,
) -> bytes:
    """Frame a raw DEFLATE payload as a single-member gzip file.

    ``uncompressed`` is needed for the CRC32/ISIZE trailer.  ``level_hint``
    sets the XFL byte the way gzip does (2 = max compression, 4 = fastest).
    """
    flags = FNAME if filename else 0
    xfl = 2 if level_hint >= 9 else (4 if level_hint <= 1 else 0)
    header = _GZIP_MAGIC + bytes([_CM_DEFLATE, flags]) + struct.pack("<I", mtime)
    header += bytes([xfl, 255])  # OS = unknown
    if filename:
        header += filename + b"\x00"
    trailer = struct.pack("<II", crc32(uncompressed), len(uncompressed) & 0xFFFFFFFF)
    return header + deflate_payload + trailer


def member_payload(data: bytes, offset: ByteOffset = ByteOffset(0)) -> GzipMember:
    """Locate the DEFLATE payload of the member starting at ``offset``.

    Decodes the member's blocks (without keeping the output) to find the
    end of the payload, then reads the trailer.  Returns a fully
    populated :class:`GzipMember`.
    """
    payload_start, flags, mtime, filename, comment = parse_gzip_header(data, offset)
    result = inflate(data, start_bit=8 * payload_start)
    if not result.final_seen:
        raise GzipFormatError(
            "member payload ended without a final block",
            bit_offset=result.end_bit,
            stage="inflate",
        )
    payload_end = (result.end_bit + 7) // 8
    if len(data) - payload_end < 8:
        raise GzipFormatError(
            "truncated gzip trailer", bit_offset=8 * payload_end, stage="trailer"
        )
    crc, isize = struct.unpack_from("<II", data, payload_end)
    return GzipMember(
        header_start=offset,
        payload_start=payload_start,
        payload_end=payload_end,
        member_end=payload_end + 8,
        crc=crc,
        isize=isize,
        flags=flags,
        mtime=mtime,
        filename=filename,
        comment=comment,
    )


def split_members(data: bytes) -> list[GzipMember]:
    """Enumerate all members of a (possibly multi-member) gzip file."""
    members = []
    offset = 0
    while offset < len(data):
        member = member_payload(data, offset)
        members.append(member)
        offset = member.member_end
    return members


def check_trailer(data, payload_end: int, output: bytes | None) -> None:
    """Check the 8-byte member trailer that starts at byte ``payload_end``.

    Raises :class:`GzipFormatError` (``stage="trailer"``) when the
    trailer is cut short, or when its CRC32 or ISIZE disagrees with
    ``output``, the member's decompressed bytes.  ``output=None`` checks
    only that the trailer is there.
    """
    if len(data) - payload_end < 8:
        raise GzipFormatError(
            "truncated gzip trailer", bit_offset=8 * payload_end, stage="trailer"
        )
    if output is None:
        return
    crc, isize = struct.unpack_from("<II", data, payload_end)
    actual_crc = crc32(output)
    if actual_crc != crc:
        raise GzipFormatError(
            f"CRC mismatch: stored {crc:#010x}, computed {actual_crc:#010x}",
            bit_offset=8 * payload_end,
            stage="trailer",
        )
    if isize != len(output) & 0xFFFFFFFF:
        raise GzipFormatError(
            f"ISIZE mismatch: stored {isize}, actual {len(output)}",
            bit_offset=8 * (payload_end + 4),
            stage="trailer",
        )


def gzip_unwrap(data: bytes, verify: bool = True, kernel=None) -> bytes:
    """Decompress a gzip file (all members) with our own inflate.

    With ``verify=True`` the CRC32 and ISIZE trailer fields of every
    member are checked.  ``kernel`` selects the decode kernel (see
    :mod:`repro.perf.kernels`); output is kernel-independent.
    """
    members = []
    offset = 0
    while offset < len(data):
        payload_start, *_ = parse_gzip_header(data, offset)
        result = inflate(data, start_bit=8 * payload_start, kernel=kernel)
        if not result.final_seen:
            raise GzipFormatError(
            "member payload ended without a final block",
            bit_offset=result.end_bit,
            stage="inflate",
        )
        payload_end = (result.end_bit + 7) // 8
        check_trailer(data, payload_end, result.data if verify else None)
        members.append(result.data)
        offset = payload_end + 8
    # join returns a lone bytes member itself: one member is never copied.
    return b"".join(members)


# ---------------------------------------------------------------------------
# zlib container (RFC 1950)
# ---------------------------------------------------------------------------


def zlib_wrap(deflate_payload: bytes, uncompressed: bytes, level_hint: int = 6) -> bytes:
    """Frame a raw DEFLATE payload as a zlib stream."""
    cmf = 0x78  # deflate, 32 KiB window
    flevel = 3 if level_hint >= 7 else (2 if level_hint >= 5 else (1 if level_hint >= 2 else 0))
    flg = flevel << 6
    # FCHECK: make (cmf*256 + flg) divisible by 31.
    rem = (cmf * 256 + flg) % 31
    if rem:
        flg += 31 - rem
    return (
        bytes([cmf, flg])
        + deflate_payload
        + struct.pack(">I", adler32(uncompressed))
    )


def zlib_unwrap(data: bytes, verify: bool = True) -> bytes:
    """Decompress a zlib stream with our own inflate."""
    if len(data) < 6:
        raise GzipFormatError("truncated zlib stream", stage="container")
    cmf, flg = data[0], data[1]
    if cmf & 0x0F != _CM_DEFLATE:
        raise GzipFormatError(
            f"unsupported zlib method {cmf & 0x0F}", stage="container"
        )
    if (cmf * 256 + flg) % 31:
        raise GzipFormatError("zlib header check failed", stage="container")
    if flg & 0x20:
        raise GzipFormatError(
            "preset dictionaries are not supported", stage="container"
        )
    result = inflate(data, start_bit=16)
    if not result.final_seen:
        raise GzipFormatError(
            "zlib payload ended without a final block",
            bit_offset=result.end_bit, stage="inflate",
        )
    end = (result.end_bit + 7) // 8
    if len(data) - end < 4:
        raise GzipFormatError(
            "truncated adler32 trailer", bit_offset=8 * end, stage="trailer"
        )
    stored = struct.unpack_from(">I", data, end)[0]
    if verify and adler32(result.data) != stored:
        raise GzipFormatError(
            "adler32 mismatch", bit_offset=8 * end, stage="trailer"
        )
    return result.data
