"""From-scratch DEFLATE / gzip / zlib codec (RFC 1950/1951/1952).

This subpackage is the substrate the paper's algorithms run on: a
complete, interoperable implementation of the compression format,
including the bit-level reader that makes arbitrary-bit-offset decoding
possible and the token capture the analysis layers use.

Public entry points:

* :func:`repro.deflate.deflate.deflate_compress` /
  :func:`repro.deflate.inflate.inflate` — raw streams;
* :func:`repro.deflate.deflate.gzip_compress` /
  :func:`repro.deflate.gzipfmt.gzip_unwrap` — gzip containers;
* :func:`repro.deflate.lz77.parse_lz77` — the LZ77 token stream alone
  (greedy levels 1-3, lazy 4-9, mirroring gzip).
"""

from repro.deflate.deflate import deflate_compress, gzip_compress, zlib_compress
from repro.deflate.gzipfmt import (
    GzipMember,
    gzip_unwrap,
    member_payload,
    split_members,
    zlib_unwrap,
)
from repro.deflate.inflate import InflateResult, inflate, inflate_bytes
from repro.deflate.lz77 import parse_lz77
from repro.deflate.streaming import (
    FINISH,
    FULL_FLUSH,
    SYNC_FLUSH,
    DeflateCompressor,
)
from repro.deflate.tokens import Token, TokenStats, TokenStream

__all__ = [
    "deflate_compress",
    "gzip_compress",
    "zlib_compress",
    "gzip_unwrap",
    "zlib_unwrap",
    "member_payload",
    "split_members",
    "GzipMember",
    "inflate",
    "inflate_bytes",
    "InflateResult",
    "parse_lz77",
    "Token",
    "TokenStream",
    "TokenStats",
    "DeflateCompressor",
    "SYNC_FLUSH",
    "FULL_FLUSH",
    "FINISH",
]
