"""Check that the numpy kernel decodes a real corpus on its own.

The differential suites compare output bytes, so they cannot see a
numpy kernel that stays byte-identical by declining blocks (each
:class:`~repro.perf.npkernel.Fallback` redoes the block with the pure
loops) or by building the pure decode tables it should never need.
This check decodes a seeded :func:`bench_decode.make_corpus` gzip file
with ``kernel="numpy"`` through

* :func:`repro.deflate.gzipfmt.gzip_unwrap` (CRC verified),
* :func:`repro.core.marker_inflate.marker_inflate`, and
* :func:`repro.core.pugz.pugz_decompress` on the serial executor,
* :func:`repro.core.parallel_index.pugz_build_index` on the serial
  executor (the cold-start index build, whose pass 1 also records each
  block's window reach), whose index must serve 4 KiB reads,

byte-compares each output with :func:`gzip.decompress`, and runs
:func:`repro.core.sync.find_block_start` from 1/4, 1/2 and 3/4 of the
payload, whose results must be block starts of the stream's block
table (the search picks its kernel as a default ``inflate`` call does,
so run it without ``REPRO_KERNEL=pure``).  Exits 1 if any leg is wrong,
never entered the kernel, had a block fall back, or built the pure
table of a litlen/distance decoder the kernel used outside block-start
probing (a strict probe decodes each block's first KiB purely by
design, building that block's pure tables).

Usage::

    python benchmarks/check_kernel_clean.py [--mb 2.0]
"""

from __future__ import annotations

import argparse
import gzip
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from bench_decode import make_corpus  # noqa: E402
from repro.core import sync  # noqa: E402
from repro.core.marker_inflate import marker_inflate  # noqa: E402
from repro.core.parallel_index import pugz_build_index  # noqa: E402
from repro.core.pugz import pugz_decompress  # noqa: E402
from repro.deflate.gzipfmt import gzip_unwrap, parse_gzip_header  # noqa: E402
from repro.deflate.huffman import HuffmanDecoder  # noqa: E402
from repro.deflate.inflate import inflate  # noqa: E402
from repro.perf import npkernel  # noqa: E402


class _Spy:
    """Count kernel fallbacks and pure-table builds while installed."""

    def __init__(self) -> None:
        self.calls = 0
        self.fallbacks = 0
        self.kernel_decoders: dict[int, HuffmanDecoder] = {}
        self.built: dict[int, HuffmanDecoder] = {}
        self.probing = 0

    def install(self) -> None:
        decode = npkernel.StreamKernel.decode_block
        build = HuffmanDecoder._build_table
        probe = sync.inflate
        spy = self

        def decode_block(kern, h_bit, litlen, dist, *a, **kw):
            spy.calls += 1
            for d in (litlen, dist):
                if d is not None:
                    spy.kernel_decoders[id(d)] = d
            try:
                return decode(kern, h_bit, litlen, dist, *a, **kw)
            except npkernel.Fallback:
                spy.fallbacks += 1
                raise

        def build_table(dec):
            if not spy.probing:
                spy.built[id(dec)] = dec
            return build(dec)

        def probe_inflate(*a, **kw):
            spy.probing += 1
            try:
                return probe(*a, **kw)
            finally:
                spy.probing -= 1

        npkernel.StreamKernel.decode_block = decode_block
        HuffmanDecoder._build_table = build_table
        sync.inflate = probe_inflate

    def pure_tables(self) -> int:
        return len(self.built.keys() & self.kernel_decoders.keys())


def _index_serves(gz: bytes, corpus: bytes) -> bool:
    """A serial cold-start build returns the corpus, and its sparse
    checkpoint windows serve exact 4 KiB reads across the file."""
    out, idx = pugz_build_index(gz, executor="serial", kernel="numpy")
    offsets = range(1, len(corpus) - 4096, max(1, len(corpus) // 7))
    return bytes(out) == corpus and all(
        idx.read_at(gz, off, 4096, kernel="numpy") == corpus[off : off + 4096]
        for off in offsets
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--mb", type=float, default=2.0, help="corpus size in MB")
    args = ap.parse_args(argv)

    corpus = make_corpus(int(args.mb * 1_000_000))
    gz = gzip.compress(corpus, 6, mtime=0)
    if gzip.decompress(gz) != corpus:
        raise SystemExit("gzip.decompress does not round-trip the corpus")
    payload_bit = 8 * parse_gzip_header(gz, 0)[0]
    blocks = inflate(gz, payload_bit, kernel="numpy").blocks
    starts = {b.start_bit for b in blocks}
    span = blocks[-1].end_bit - payload_bit

    spy = _Spy()
    spy.install()
    checks = {
        "gzip_unwrap": lambda: bytes(gzip_unwrap(gz, verify=True, kernel="numpy")) == corpus,
        "marker_inflate": lambda: marker_inflate(gz, payload_bit, kernel="numpy")
        .symbols.astype(np.uint8)
        .tobytes()
        == corpus,
        "pugz_decompress": lambda: bytes(pugz_decompress(gz, executor="serial", kernel="numpy"))
        == corpus,
        "pugz_build_index": lambda: _index_serves(gz, corpus),
        "find_block_start": lambda: all(
            sync.find_block_start(gz, payload_bit + q * span // 4).bit_offset in starts
            for q in (1, 2, 3)
        ),
    }
    failed = False
    for name, run in checks.items():
        before = (spy.calls, spy.fallbacks, spy.pure_tables())
        right = run()
        calls = spy.calls - before[0]
        fallbacks = spy.fallbacks - before[1]
        tables = spy.pure_tables() - before[2]
        ok = right and calls and not fallbacks and not tables
        failed |= not ok
        print(
            f"{name:16s} {'ok' if ok else 'FAIL'}: result {'right' if right else 'WRONG'},"
            f" {calls} kernel blocks, {fallbacks} kernel fallbacks, {tables} pure tables built"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
