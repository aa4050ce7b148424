"""gzip/zlib container framing, multi-member files, trailer verification."""

import gzip as stdlib_gzip
import struct
import zlib

import pytest

from repro.deflate.deflate import deflate_compress, gzip_compress, zlib_compress
from repro.deflate.gzipfmt import (
    gzip_unwrap,
    gzip_wrap,
    member_payload,
    parse_gzip_header,
    split_members,
    zlib_unwrap,
    zlib_wrap,
)
from repro.errors import GzipFormatError


class TestGzipHeaders:
    def test_minimal_header(self):
        g = stdlib_gzip.compress(b"data", 6)
        pos, flags, mtime, filename, comment = parse_gzip_header(g)
        assert pos == 10
        assert filename is None

    def test_fname_field(self):
        g = gzip_compress(b"content", 6, filename=b"reads.fastq")
        pos, flags, mtime, filename, comment = parse_gzip_header(g)
        assert filename == b"reads.fastq"
        assert pos == 10 + len(b"reads.fastq") + 1

    def test_mtime_preserved(self):
        g = gzip_compress(b"x", 6, mtime=1234567890)
        _, _, mtime, _, _ = parse_gzip_header(g)
        assert mtime == 1234567890

    def test_bad_magic(self):
        with pytest.raises(GzipFormatError):
            parse_gzip_header(b"PK\x03\x04" + b"\x00" * 20)

    def test_truncated_header(self):
        with pytest.raises(GzipFormatError):
            parse_gzip_header(b"\x1f\x8b\x08")

    def test_unsupported_method(self):
        bad = b"\x1f\x8b\x07" + b"\x00" * 7
        with pytest.raises(GzipFormatError):
            parse_gzip_header(bad)

    def test_reserved_flags(self):
        bad = b"\x1f\x8b\x08\xe0" + b"\x00" * 6
        with pytest.raises(GzipFormatError):
            parse_gzip_header(bad)

    def test_fextra_skipped(self):
        # Hand-build a header with an EXTRA field.
        payload = deflate_compress(b"hello extra", 6)
        extra = b"AB\x04\x00abcd"
        header = b"\x1f\x8b\x08\x04" + b"\x00" * 6 + struct.pack("<H", len(extra)) + extra
        trailer = struct.pack("<II", zlib.crc32(b"hello extra"), 11)
        g = header + payload + trailer
        assert gzip_unwrap(g) == b"hello extra"

    def test_fcomment_and_fname(self):
        payload = deflate_compress(b"cc", 6)
        header = b"\x1f\x8b\x08" + bytes([8 | 16]) + b"\x00" * 6
        header += b"name.txt\x00a comment\x00"
        trailer = struct.pack("<II", zlib.crc32(b"cc"), 2)
        pos, flags, _, filename, comment = parse_gzip_header(header + payload + trailer)
        assert filename == b"name.txt"
        assert comment == b"a comment"


class TestRoundTrips:
    def test_ours_to_stdlib(self, fastq_small):
        g = gzip_compress(fastq_small, 6)
        assert stdlib_gzip.decompress(g) == fastq_small

    def test_stdlib_to_ours(self, fastq_small):
        g = stdlib_gzip.compress(fastq_small, 9)
        assert gzip_unwrap(g) == fastq_small

    def test_ours_to_ours(self, mixed_text):
        g = gzip_compress(mixed_text[:50000], 4)
        assert gzip_unwrap(g) == mixed_text[:50000]

    def test_zlib_container_ours_to_stdlib(self, dna_100k):
        z = zlib_compress(dna_100k[:20000], 6)
        assert zlib.decompress(z) == dna_100k[:20000]

    def test_zlib_container_stdlib_to_ours(self, dna_100k):
        z = zlib.compress(dna_100k[:20000], 6)
        assert zlib_unwrap(z) == dna_100k[:20000]

    def test_empty_file(self):
        assert gzip_unwrap(gzip_compress(b"")) == b""
        assert zlib_unwrap(zlib_compress(b"")) == b""


class TestTrailerVerification:
    def test_crc_mismatch_detected(self, fastq_small):
        g = bytearray(gzip_compress(fastq_small, 6))
        g[-5] ^= 0xFF  # corrupt CRC field
        with pytest.raises(GzipFormatError, match="CRC"):
            gzip_unwrap(bytes(g))

    def test_isize_mismatch_detected(self, fastq_small):
        g = bytearray(gzip_compress(fastq_small, 6))
        g[-1] ^= 0xFF  # corrupt ISIZE field
        with pytest.raises(GzipFormatError, match="ISIZE"):
            gzip_unwrap(bytes(g))

    def test_verification_can_be_skipped(self, fastq_small):
        g = bytearray(gzip_compress(fastq_small, 6))
        g[-5] ^= 0xFF
        assert gzip_unwrap(bytes(g), verify=False) == fastq_small

    def test_one_bit_crc_error_in_large_member(self):
        # Over a MiB: the checksum runs on the lane-parallel path.
        data = bytes(range(256)) * 4500
        g = bytearray(stdlib_gzip.compress(data, 1))
        g[-8] ^= 0x01  # low bit of the stored CRC
        with pytest.raises(GzipFormatError, match="CRC") as err:
            gzip_unwrap(bytes(g))
        assert err.value.stage == "trailer"

    def test_header_crc_checked(self):
        header = b"\x1f\x8b\x08\x02" + b"\x00" * 4 + b"\x00\xff"  # FHCRC
        stored = struct.pack("<H", zlib.crc32(header) & 0xFFFF)
        body = stdlib_gzip.compress(b"header crc", 6)[10:]
        assert gzip_unwrap(header + stored + body) == b"header crc"
        bad = struct.pack("<H", (zlib.crc32(header) ^ 0x0100) & 0xFFFF)
        with pytest.raises(GzipFormatError, match="header CRC"):
            gzip_unwrap(header + bad + body)

    def test_truncated_trailer(self):
        g = gzip_compress(b"abc", 6)
        with pytest.raises(GzipFormatError):
            gzip_unwrap(g[:-4])

    def test_zlib_adler_mismatch(self):
        z = bytearray(zlib_compress(b"payload data", 6))
        z[-1] ^= 0x01
        with pytest.raises(GzipFormatError, match="adler"):
            zlib_unwrap(bytes(z))

    def test_zlib_header_check(self):
        z = bytearray(zlib_compress(b"x", 6))
        z[1] ^= 0x01  # break the FCHECK
        with pytest.raises(GzipFormatError):
            zlib_unwrap(bytes(z))


class TestMultiMember:
    def test_split_members(self, fastq_small):
        parts = [fastq_small[:1000], fastq_small[1000:5000], fastq_small[5000:]]
        g = b"".join(stdlib_gzip.compress(p, 6) for p in parts)
        members = split_members(g)
        assert len(members) == 3
        assert members[0].header_start == 0
        assert members[-1].member_end == len(g)
        assert sum(m.isize for m in members) == len(fastq_small)

    def test_unwrap_multi_member(self, fastq_small):
        g = stdlib_gzip.compress(fastq_small[:700]) + gzip_compress(fastq_small[700:], 6)
        assert gzip_unwrap(g) == fastq_small

    @pytest.mark.parametrize("n_members", [1, 3])
    def test_unwrap_returns_bytes_like_stdlib(self, fastq_small, n_members):
        cuts = [len(fastq_small) * i // n_members for i in range(n_members + 1)]
        g = b"".join(
            stdlib_gzip.compress(fastq_small[a:b], 6) for a, b in zip(cuts, cuts[1:])
        )
        out = gzip_unwrap(g)
        assert type(out) is bytes
        assert out == stdlib_gzip.decompress(g)

    def test_member_payload_fields(self, fastq_small):
        g = gzip_compress(fastq_small, 6)
        m = member_payload(g)
        assert m.payload_start == 10
        assert m.member_end == len(g)
        assert m.isize == len(fastq_small)
        assert m.crc == zlib.crc32(fastq_small)

    def test_stdlib_reads_concatenation_of_ours(self, dna_100k):
        g = gzip_compress(dna_100k[:9000], 6) + gzip_compress(dna_100k[9000:20000], 1)
        assert stdlib_gzip.decompress(g) == dna_100k[:20000]


class TestWrapHelpers:
    def test_gzip_wrap_xfl_hints(self):
        fast = gzip_wrap(deflate_compress(b"a", 1), b"a", level_hint=1)
        best = gzip_wrap(deflate_compress(b"a", 9), b"a", level_hint=9)
        assert fast[8] == 4 and best[8] == 2

    def test_zlib_wrap_header_valid(self):
        z = zlib_wrap(deflate_compress(b"a", 6), b"a")
        assert (z[0] * 256 + z[1]) % 31 == 0
