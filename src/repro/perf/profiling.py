"""Stage-level profiling of the decoders (the guides' first rule:

*no optimisation without measuring*).  Breaks an inflate run into its
cost centres — dynamic-header/table building, litlen symbol decoding,
match copying, container/checksum work — by timing dedicated passes
that isolate each stage.  Used by the profiling benchmark to show
where a pure-Python DEFLATE spends its time (and to justify the cost
model's stage constants).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.deflate.bitio import BitReader
from repro.deflate.crc32 import crc32
from repro.deflate.gzipfmt import parse_gzip_header
from repro.deflate.inflate import inflate, read_block_header

__all__ = ["DecodeProfile", "profile_inflate"]


@dataclass
class DecodeProfile:
    """Wall-clock breakdown of decoding one gzip payload."""

    total_seconds: float
    #: Building Huffman tables for every block (headers re-decoded).
    table_seconds: float
    #: Full decode minus output materialisation (token capture off).
    decode_seconds: float
    #: CRC32 of the output (the gunzip-role extra work).
    checksum_seconds: float
    output_bytes: int
    blocks: int

    @property
    def decode_mbps(self) -> float:
        """Output MB/s of the plain decode stage."""
        return self.output_bytes / 1e6 / self.decode_seconds if self.decode_seconds else 0.0

    def rows(self) -> list[tuple[str, float, float]]:
        """(stage, seconds, fraction-of-total) rows for reporting."""
        parts = [
            ("huffman tables", self.table_seconds),
            ("symbol decode + copies", max(0.0, self.decode_seconds - self.table_seconds)),
            ("crc32", self.checksum_seconds),
        ]
        return [(name, secs, secs / self.total_seconds) for name, secs in parts]


def profile_inflate(gz_data: bytes) -> DecodeProfile:
    """Profile decoding of a gzip member.

    Three timed passes over the same payload:

    1. header walk — decode every block *header* only (tables built,
       symbols skipped by decoding through; measured as the marginal
       cost of table construction via a headers-only replay);
    2. plain decode — the real work;
    3. checksum — CRC32 over the output.

    Huffman decoders are memoized on their code-length tuple
    (``repro.deflate.huffman.cached_decoder``), so the header walk —
    which replays headers the main decode pass already built — measures
    the *cached* per-block residual, not cold table construction:
    repeated headers are the steady state on real corpora
    (docs/PERFORMANCE.md).
    """
    payload_start, *_ = parse_gzip_header(gz_data, 0)
    start_bit = 8 * payload_start

    t0 = time.perf_counter()
    result = inflate(gz_data, start_bit=start_bit)
    decode_seconds = time.perf_counter() - t0

    # Table-construction cost: rebuild each block's decoders from the
    # recorded block start bits (header decode = table building).
    t0 = time.perf_counter()
    for block in result.blocks:
        if block.btype != 0:
            reader = BitReader(gz_data, block.start_bit)
            read_block_header(reader)
    table_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    crc32(result.data)
    checksum_seconds = time.perf_counter() - t0

    return DecodeProfile(
        total_seconds=decode_seconds + checksum_seconds,
        table_seconds=table_seconds,
        decode_seconds=decode_seconds,
        checksum_seconds=checksum_seconds,
        output_bytes=len(result.data),
        blocks=len(result.blocks),
    )
