"""gzip (RFC 1952) and zlib (RFC 1950) container framing.

The parallel decompressor operates on the *raw DEFLATE payload* inside
a gzip member.  :func:`iter_members` is the one walk over the members
of a (possibly multi-member, "blocked") gzip file — the bgzip-style
files the paper's related-work section discusses: it parses each
header, hands the caller the payload's first bit to decode however it
likes (our inflate, pugz's two passes, the index builders), then finds
and checks the trailer and the next member.  It owns every container
rule: empty input, trailing garbage, truncated trailers, CRC32/ISIZE.
The module also builds and verifies containers around our own
compressor/decompressor.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field

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
    "check_trailer_sums",
    "inflate_member",
    "iter_members",
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
    bytes; ``crc`` and ``isize`` are the trailer fields.  A member from
    :func:`iter_members` has its trailer fields (and ``payload_end``,
    ``member_end``) filled in by :meth:`finish`.
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
    #: The file this member was walked in (see :func:`iter_members`).
    data: bytes | None = field(default=None, repr=False, compare=False)

    @property
    def payload_start_bit(self) -> BitOffset:
        """Bit offset of the first DEFLATE block header."""
        return BitOffset(8 * self.payload_start)

    def finish(
        self, end_bit: int, final_seen: bool, crc: int | None = None, size: int = 0
    ) -> None:
        """Close the member after its payload was decoded to ``end_bit``.

        Raises :class:`GzipFormatError` when the decode did not reach a
        final block (``stage="inflate"``) or the 8-byte trailer is cut
        short (``stage="trailer"``); otherwise records the trailer.
        Given the ``crc`` and ``size`` of the member's output, it then
        compares them with the trailer (:func:`check_trailer_sums`): a
        mismatch raises after the trailer is recorded, so a caller that
        tolerates it can walk on.
        """
        if not final_seen:
            raise GzipFormatError(
                "member payload ended without a final block",
                bit_offset=end_bit,
                stage="inflate",
            )
        payload_end = (end_bit + 7) // 8
        if len(self.data) - payload_end < 8:
            raise GzipFormatError(
                "truncated gzip trailer", bit_offset=8 * payload_end, stage="trailer"
            )
        self.crc, self.isize = struct.unpack_from("<II", self.data, payload_end)
        self.payload_end, self.member_end = payload_end, payload_end + 8
        if crc is not None:
            check_trailer_sums(self.data, payload_end, crc, size)


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


def iter_members(
    data, offset: ByteOffset = ByteOffset(0), *, allow_trailing_garbage: bool = False
):
    """Walk the members of a (possibly multi-member) gzip file.

    The one loop over gzip members: it yields a :class:`GzipMember`
    per member, with the header fields and ``payload_start`` filled in,
    starting with the member at ``offset``.  The caller decodes the
    payload from :attr:`GzipMember.payload_start_bit` however it likes,
    then calls :meth:`GzipMember.finish` before asking for the next
    member; ``finish`` finds the trailer, so the walk knows where the
    next member starts.

    Empty input raises :class:`GzipFormatError` (``stage="container"``)
    at once.  A bad header at ``offset`` raises as it is; bytes after a
    member that are not a gzip header are trailing garbage, which
    raises (``stage="container"``, at the garbage's first byte) or,
    with ``allow_trailing_garbage``, ends the walk with a warning.
    """
    if not data:
        raise GzipFormatError("empty input", bit_offset=0, stage="container")
    return _walk(data, offset, allow_trailing_garbage)


def _walk(data, offset: ByteOffset, allow_trailing_garbage: bool):
    start = offset
    while True:
        try:
            payload_start, flags, mtime, filename, comment = parse_gzip_header(data, offset)
        except GzipFormatError as exc:
            if offset == start:
                raise
            garbage = f"{len(data) - offset} bytes at byte offset {offset}"
            if allow_trailing_garbage:
                warnings.warn(
                    f"ignoring {garbage} of trailing garbage after the last gzip "
                    f"member: {exc.message}",
                    stacklevel=4,
                )
                return
            raise GzipFormatError(
                f"trailing garbage after last gzip member: {garbage} are not a "
                f"gzip header ({exc.message})",
                bit_offset=8 * offset,
                stage="container",
            ) from exc
        member = GzipMember(
            offset, payload_start, 0, 0, 0, 0, flags, mtime, filename, comment, data=data
        )
        yield member
        if not member.member_end:
            raise ValueError("finish() each gzip member before walking to the next")
        offset = member.member_end
        if offset >= len(data):
            return


def inflate_member(member: GzipMember, verify: bool = True, kernel=None) -> InflateResult:
    """Decode a member from :func:`iter_members` with our own inflate and
    :meth:`~GzipMember.finish` it, checking its CRC32 and ISIZE when
    ``verify``; returns the :class:`InflateResult`."""
    result = inflate(member.data, start_bit=member.payload_start_bit, kernel=kernel)
    out = result.data
    member.finish(result.end_bit, result.final_seen, crc32(out) if verify else None, len(out))
    return result


def member_payload(data: bytes, offset: ByteOffset = ByteOffset(0)) -> GzipMember:
    """Locate the member starting at ``offset``: decode it (without
    keeping the output) to find the end of its payload, check its
    trailer, and return the fully populated :class:`GzipMember`."""
    member = next(iter_members(data, offset))
    inflate_member(member)
    return member


def split_members(data: bytes) -> list[GzipMember]:
    """Enumerate all members of a (possibly multi-member) gzip file,
    each decoded once and checked against its trailer."""
    members = []
    for member in iter_members(data):
        inflate_member(member)
        members.append(member)
    return members


def check_trailer_sums(data, payload_end: int, crc: int, size: int) -> None:
    """Compare the trailer at byte ``payload_end`` with a member's CRC32
    and length, computed by the caller (for instance chained over
    streamed pieces).  Raises :class:`GzipFormatError`
    (``stage="trailer"``) on a mismatch."""
    stored_crc, isize = struct.unpack_from("<II", data, payload_end)
    if crc != stored_crc:
        raise GzipFormatError(
            f"CRC mismatch: stored {stored_crc:#010x}, computed {crc:#010x}",
            bit_offset=8 * payload_end,
            stage="trailer",
        )
    if isize != size & 0xFFFFFFFF:
        raise GzipFormatError(
            f"ISIZE mismatch: stored {isize}, actual {size}",
            bit_offset=8 * (payload_end + 4),
            stage="trailer",
        )


def gzip_unwrap(data: bytes, verify: bool = True, kernel=None) -> bytes:
    """Decompress a gzip file (all members) with our own inflate.

    With ``verify=True`` the CRC32 and ISIZE trailer fields of every
    member are checked.  ``kernel`` selects the decode kernel (see
    :mod:`repro.perf.kernels`); output is kernel-independent.
    """
    # join returns a lone bytes member itself: one member is never copied.
    return b"".join([inflate_member(m, verify, kernel).data for m in iter_members(data)])


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
