"""Checkpoint-span curve of the zran index under sparse windows.

For each span, builds the index of one gzip file with the serial pugz
cold start (:func:`repro.core.parallel_index.pugz_build_index`, the
:class:`~repro.index.seekable.SeekableGzipReader` default), serialises
it, and serves 4 KiB point ``pread`` calls at golden-ratio offsets
through a reader holding that index.  Prints, per span: checkpoints,
median stored window bytes per block checkpoint, ``to_bytes`` time,
sidecar bytes, build time, p50/p90 read latency, and bytes decoded per
read with their ratio to the bytes served (seek amplification).

Usage::

    python benchmarks/bench_span.py FILE.gz [--spans 262144,65536,16384]
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
from repro.index.zran import CHECKPOINT_BLOCK  # noqa: E402

READ = 4096
_PHI = (5 ** 0.5 - 1) / 2


def measure(gz: bytes, span: int, reads: int) -> dict:
    t0 = time.perf_counter()
    plain, idx = pugz_build_index(gz, span=span)
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    blob = idx.to_bytes()
    to_bytes_s = time.perf_counter() - t0
    stored = [len(cp.window) for cp in idx.checkpoints if cp.kind == CHECKPOINT_BLOCK]
    reader = SeekableGzipReader(gz, index=idx)
    times = []
    for i in range(reads):
        off = int(((0.5 + i * _PHI) % 1.0) * (len(plain) - READ))
        t0 = time.perf_counter()
        out = reader.pread(off, READ)
        times.append(time.perf_counter() - t0)
        if out != plain[off : off + READ]:
            raise SystemExit(f"span {span}: wrong bytes at {off}")
    decoded = reader.stats.decoded_bytes / reads
    q = statistics.quantiles(times, n=10)
    return {
        "span": span,
        "checkpoints": len(idx.checkpoints),
        "stored_median": statistics.median(stored) if stored else 0,
        "to_bytes_s": to_bytes_s,
        "sidecar": len(blob),
        "build_s": build_s,
        "p50_ms": 1e3 * statistics.median(times),
        "p90_ms": 1e3 * q[8],
        "decoded": decoded,
        "amplification": decoded / READ,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("gz", nargs="?", help="gzip file (default: seeded 8 MB corpus)")
    ap.add_argument("--spans", default="262144,65536,32768,16384,8192")
    ap.add_argument("--reads", type=int, default=400)
    args = ap.parse_args(argv)
    if args.gz:
        with open(args.gz, "rb") as fh:
            gz = fh.read()
    else:
        gz = gzip.compress(make_corpus(8_000_000), 6, mtime=0)
    print(
        f"{'span':>8} {'ckpts':>6} {'stored':>7} {'to_bytes':>9} {'sidecar':>9}"
        f" {'build':>7} {'p50':>8} {'p90':>8} {'decoded':>9} {'amp':>6}"
    )
    for span in (int(s) for s in args.spans.split(",")):
        r = measure(gz, span, args.reads)
        print(
            f"{r['span']:>8} {r['checkpoints']:>6} {r['stored_median']:>7.0f}"
            f" {r['to_bytes_s']:>8.3f}s {r['sidecar']:>9} {r['build_s']:>6.2f}s"
            f" {r['p50_ms']:>6.2f}ms {r['p90_ms']:>6.2f}ms {r['decoded']:>9.0f}"
            f" {r['amplification']:>6.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
