"""Benchmark-regression harness for the decode hot paths.

Times the three workloads whose throughput the paper's contribution is
about (Table II / Figure 5) on a deterministic generated corpus:

* ``sequential_inflate`` — byte-domain :func:`repro.deflate.inflate.inflate`
  over a raw DEFLATE payload (the gunzip role);
* ``marker_inflate``     — marker-domain first pass with a fully
  undetermined context (:func:`repro.core.marker_inflate.marker_inflate`);
* ``pugz_two_pass``      — the full two-pass parallel decompressor
  (:func:`repro.core.pugz.pugz_decompress_payload`, serial executor, so
  the number measures single-thread work, not parallel speedup);
* ``seek_cold``          — first touch of an un-indexed gzip file via
  :class:`repro.index.seekable.SeekableGzipReader` (the pugz cold start
  that also builds the checkpoint index); MB/s of the whole corpus the
  cold pass decodes;
* ``seek_warm``          — 64 seeded random 4 KiB ``pread`` calls
  against a pre-built index; MB/s of *served* bytes, so the <= span
  decode overhead per seek is priced in.

Every workload runs once per decode kernel (``--kernel pure|numpy|both``;
default ``both``, or ``$REPRO_KERNEL`` when set), and results are
written as JSON with the schema

    {workload: {kernel: {"mb_per_s": float, "speedup_vs_baseline": float}}}

plus a ``_meta`` entry (corpus size, repeats, python version, kernels).
The committed baseline (``benchmarks/BENCH_baseline.json``) uses the
same nested shape; a legacy flat baseline (``{workload: {"mb_per_s"}}``)
is accepted and applies to every kernel.  ``--max-regression`` gates
each (workload, kernel) cell independently, so neither kernel can
regress behind the other's numbers.  ``speedup_vs_baseline`` > 1 means
this tree is faster.  Run via ``make bench-quick``; see
docs/PERFORMANCE.md "Two-stage kernels".

Determinism: the corpus is seeded (``random.Random(SEED)``) and zlib is
deterministic for a given input/level, so byte streams are identical
across runs and machines — only the wall-clock differs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import zlib

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.marker_inflate import marker_inflate  # noqa: E402
from repro.core.pugz import pugz_decompress_payload  # noqa: E402
from repro.deflate.inflate import inflate  # noqa: E402
from repro.index.seekable import SeekableGzipReader  # noqa: E402
from repro.index.zran import DEFAULT_SPAN, build_index  # noqa: E402

SEED = 0x5EED5
DEFAULT_MB = float(os.environ.get("BENCH_CORPUS_MB", "2.0"))
WORKLOADS = (
    "sequential_inflate",
    "marker_inflate",
    "pugz_two_pass",
    "seek_cold",
    "seek_warm",
)


def make_corpus(n_bytes: int, seed: int = SEED) -> bytes:
    """FASTQ-like deterministic ASCII corpus (headers, DNA, qualities)."""
    import random

    rng = random.Random(seed)
    out = bytearray()
    read_id = 0
    while len(out) < n_bytes:
        read_id += 1
        seq_len = rng.randint(80, 120)
        seq = "".join(rng.choice("ACGT") for _ in range(seq_len))
        qual = "".join(chr(rng.randint(33, 73)) for _ in range(seq_len))
        out += (
            f"@SRR000001.{read_id} {read_id}/1\n{seq}\n+\n{qual}\n"
        ).encode("ascii")
    return bytes(out[:n_bytes])


def _time_best(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds of ``fn()``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_workloads(corpus: bytes, repeats: int, kernel: str) -> dict[str, float]:
    """Measure every workload under ``kernel``; MB/s of decompressed output."""
    payload = zlib.compress(corpus, 6)[2:-4]  # strip zlib framing -> raw DEFLATE
    n_out = len(corpus)

    results: dict[str, float] = {}

    def seq() -> None:
        data = inflate(payload, kernel=kernel).data
        assert data == corpus, "sequential inflate produced wrong bytes"

    results["sequential_inflate"] = n_out / 1e6 / _time_best(seq, repeats)

    def mk() -> None:
        res = marker_inflate(payload, window=None, kernel=kernel)
        assert res.total_output == n_out, "marker inflate wrong length"

    results["marker_inflate"] = n_out / 1e6 / _time_best(mk, repeats)

    def pz() -> None:
        data = pugz_decompress_payload(
            payload, 0, 8 * len(payload), n_chunks=4, executor="serial",
            kernel=kernel,
        )
        assert data == corpus, "pugz produced wrong bytes"

    results["pugz_two_pass"] = n_out / 1e6 / _time_best(pz, repeats)

    gz = _gzip_frame(corpus, payload)

    def cold() -> None:
        reader = SeekableGzipReader(gz, n_chunks=4, kernel=kernel)
        mid = n_out // 2
        assert reader.pread(mid, 4096) == corpus[mid : mid + 4096]

    results["seek_cold"] = n_out / 1e6 / _time_best(cold, repeats)

    idx = build_index(gz, span=DEFAULT_SPAN)
    import random

    rng = random.Random(SEED + 1)
    offsets = [rng.randrange(0, n_out - 4096) for _ in range(64)]

    def warm() -> None:
        reader = SeekableGzipReader(gz, index=idx, kernel=kernel)
        for off in offsets:
            assert reader.pread(off, 4096) == corpus[off : off + 4096]

    results["seek_warm"] = len(offsets) * 4096 / 1e6 / _time_best(warm, repeats)

    return results


def _gzip_frame(corpus: bytes, payload: bytes) -> bytes:
    """Frame the raw DEFLATE payload as a single-member gzip file."""
    import struct

    header = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff"
    trailer = struct.pack("<II", zlib.crc32(corpus), len(corpus) & 0xFFFFFFFF)
    return header + payload + trailer


def _baseline_mbps(baseline: dict, workload: str, kernel: str):
    """Baseline MB/s for a (workload, kernel) cell.

    Accepts both the nested per-kernel schema and the legacy flat one,
    where a single number covers every kernel.
    """
    entry = baseline.get(workload, {})
    if kernel in entry and isinstance(entry[kernel], dict):
        return entry[kernel].get("mb_per_s")
    return entry.get("mb_per_s")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size-mb", type=float, default=DEFAULT_MB,
                    help="corpus size in MB (env BENCH_CORPUS_MB overrides default)")
    ap.add_argument("--repeats", type=int, default=3, help="best-of-N timing")
    ap.add_argument("--kernel", choices=("pure", "numpy", "both"),
                    default=os.environ.get("REPRO_KERNEL") or "both",
                    help="decode kernel(s) to measure "
                         "(default: $REPRO_KERNEL, else both)")
    ap.add_argument("--out", default="BENCH_pr10.json", help="result JSON path")
    ap.add_argument("--baseline", default=os.path.join(
        os.path.dirname(__file__), "BENCH_baseline.json"),
        help="baseline JSON to compare against")
    ap.add_argument("--write-baseline", action="store_true",
                    help="write --out in baseline format (mb_per_s only)")
    ap.add_argument("--max-regression", type=float, default=None,
                    help="exit 1 if any workload is slower than "
                         "baseline * (1 - MAX_REGRESSION), e.g. 0.2")
    args = ap.parse_args(argv)

    kernels = ("pure", "numpy") if args.kernel == "both" else (args.kernel,)
    corpus = make_corpus(int(args.size_mb * 1e6))
    print(
        f"corpus: {len(corpus)/1e6:.2f} MB FASTQ-like, repeats={args.repeats}, "
        f"kernels={'/'.join(kernels)}"
    )
    measured = {k: run_workloads(corpus, args.repeats, k) for k in kernels}

    baseline: dict = {}
    if not args.write_baseline and os.path.exists(args.baseline):
        with open(args.baseline) as fh:
            baseline = json.load(fh)

    header = f"  {'workload':<20}" + "".join(f" {k + ' MB/s':>12}" for k in kernels)
    if len(kernels) == 2:
        header += f" {'numpy/pure':>11}"
    print(header)

    report: dict = {}
    failed: list[str] = []
    for name in WORKLOADS:
        cells: dict = {}
        row = f"  {name:<20}"
        for k in kernels:
            mbps = round(measured[k][name], 3)
            if args.write_baseline:
                cells[k] = {"mb_per_s": mbps}
                row += f" {mbps:12.2f}"
                continue
            base = _baseline_mbps(baseline, name, k)
            speedup = round(mbps / base, 3) if base else None
            cells[k] = {"mb_per_s": mbps, "speedup_vs_baseline": speedup}
            row += f" {mbps:12.2f}"
            if (
                args.max_regression is not None
                and speedup is not None
                and speedup < 1.0 - args.max_regression
            ):
                failed.append(f"{name}[{k}]")
        if len(kernels) == 2:
            row += f" {measured['numpy'][name] / measured['pure'][name]:10.2f}x"
        print(row)
        report[name] = cells

    report["_meta"] = {
        "corpus_mb": round(len(corpus) / 1e6, 3),
        "repeats": args.repeats,
        "python": platform.python_version(),
        "seed": SEED,
        "kernels": list(kernels),
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")

    if failed:
        print(f"REGRESSION: {', '.join(failed)} slower than "
              f"{(1 - args.max_regression):.0%} of baseline", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
