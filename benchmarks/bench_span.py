"""Checkpoint-span curve of the zran index.

For each span, builds the index of one gzip file with the serial pugz
cold start (:func:`repro.core.parallel_index.pugz_build_index`, the
:class:`~repro.index.seekable.SeekableGzipReader` default), serialises
it, and serves 4 KiB point ``pread`` calls at golden-ratio offsets
through a reader holding that index, twice over the same offsets.
Prints, per span: checkpoints by kind (block / token / member), median
stored window bytes per block and per token checkpoint, the window
bytes of all checkpoints and their union (each output byte once, as
the v5 sidecar stores them), ``to_bytes`` time, sidecar bytes, build
time, and for the second pass (warm: the
reader holds the block headers the first pass parsed) p50/p90 read
latency, block headers parsed and ``pread`` calls per read, and bytes
decoded per read with their ratio to the bytes served (seek
amplification).

Usage::

    python benchmarks/bench_span.py FILE.gz [--spans 32768,16384,8192,4096]
        [--reads 400]

Without ``FILE.gz`` it compresses an 8 MB seeded FASTQ-like corpus
(:func:`bench_decode.make_corpus`) with gzip -6.
"""

from __future__ import annotations

import argparse
import gzip
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from bench_decode import make_corpus  # noqa: E402
from repro.core.parallel_index import pugz_build_index  # noqa: E402
from repro.index.seekable import SeekableGzipReader  # noqa: E402

READ = 4096
_PHI = (5 ** 0.5 - 1) / 2


def measure(gz: bytes, span: int, reads: int) -> dict:
    t0 = time.perf_counter()
    plain, idx = pugz_build_index(gz, span=span)
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    blob = idx.to_bytes()
    to_bytes_s = time.perf_counter() - t0
    kinds = {"block": [], "token": [], "member": []}
    for cp in idx.checkpoints:
        kinds[cp.kind].append(len(cp.window))
    reader = SeekableGzipReader(gz, index=idx)
    offsets = [int(((0.5 + i * _PHI) % 1.0) * (len(plain) - READ)) for i in range(reads)]
    for _ in range(2):
        reader.stats.reset_counters()
        times = []
        for off in offsets:
            t0 = time.perf_counter()
            out = reader.pread(off, READ)
            times.append(time.perf_counter() - t0)
            if out != plain[off : off + READ]:
                raise SystemExit(f"span {span}: wrong bytes at {off}")
    stats = reader.stats
    decoded = stats.decoded_bytes / reads
    q = statistics.quantiles(times, n=10)
    return {
        "span": span,
        "counts": {k: len(v) for k, v in kinds.items()},
        "stored": {k: statistics.median(v) if v else 0 for k, v in kinds.items()},
        "windows": sum(sum(v) for v in kinds.values()),
        "union": len(idx.window_union()),
        "to_bytes_s": to_bytes_s,
        "sidecar": len(blob),
        "build_s": build_s,
        "p50_ms": 1e3 * statistics.median(times),
        "p90_ms": 1e3 * q[8],
        "headers": stats.headers_parsed / reads,
        "preads": stats.pread_calls / reads,
        "decoded": decoded,
        "amplification": decoded / READ,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("gz", nargs="?", help="gzip file (default: seeded 8 MB corpus)")
    ap.add_argument("--spans", default="32768,16384,8192,4096")
    ap.add_argument("--reads", type=int, default=400)
    args = ap.parse_args(argv)
    if args.gz:
        with open(args.gz, "rb") as fh:
            gz = fh.read()
    else:
        gz = gzip.compress(make_corpus(8_000_000), 6, mtime=0)
    print(
        f"{'span':>6} {'block':>6} {'token':>6} {'member':>6} {'stored b/t':>11}"
        f" {'windows':>8} {'union':>8}"
        f" {'to_bytes':>9} {'sidecar':>9} {'build':>7} {'p50':>8} {'p90':>8}"
        f" {'hdrs':>5} {'preads':>6} {'decoded':>8} {'amp':>5}"
    )
    for span in (int(s) for s in args.spans.split(",")):
        r = measure(gz, span, args.reads)
        c, st = r["counts"], r["stored"]
        print(
            f"{r['span']:>6} {c['block']:>6} {c['token']:>6} {c['member']:>6}"
            f" {st['block']:>5.0f}/{st['token']:<5.0f}"
            f" {r['windows']:>8} {r['union']:>8}"
            f" {r['to_bytes_s']:>8.3f}s {r['sidecar']:>9} {r['build_s']:>6.2f}s"
            f" {r['p50_ms']:>6.2f}ms {r['p90_ms']:>6.2f}ms {r['headers']:>5.2f}"
            f" {r['preads']:>6.2f} {r['decoded']:>8.0f}"
            f" {r['amplification']:>5.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
