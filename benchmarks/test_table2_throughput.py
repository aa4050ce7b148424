"""Table II: decompression speed of the sequential decoders and pugz, measured.

The paper's Table II (3 FASTQ files of 3-7.5 GB preloaded in memory,
2x12-core Xeon) reports compressed MB/s: gunzip 37, libdeflate 118 and
pugz on 32 threads 611.  Those figures are printed here as context and
never asserted.  This benchmark measures, on the machine it runs on and
on the 8 MB corpus of the ``fastq_8m`` fixture (gzip -6), the median of
:data:`RUNS` runs of:

* ``gzip_unwrap`` — this repository's sequential decoder, CRC checked;
* CPython's ``zlib`` — a C decoder, the role gunzip plays in the paper;
* serial pugz — the two-pass algorithm, one chunk per CPU (at most 32),
  on one core;
* pugz on a warm process pool, one worker and one chunk per CPU (an
  untimed first run pays the pool's start-up).

Each run's output must equal the corpus; nothing else is asserted.

Run: ``python -m pytest benchmarks/test_table2_throughput.py --benchmark-disable -q -s``
"""

from __future__ import annotations

import os
import statistics
import time
import zlib

from repro.core.pugz import pugz_decompress
from repro.deflate.gzipfmt import gzip_unwrap
from repro.parallel.executor import ProcessExecutor

#: The paper's Table II, compressed MB/s on its testbed (context only).
PAPER = {"gunzip": 37.0, "libdeflate": 118.0, "pugz, 32 threads": 611.0}
RUNS = 3


def _median_seconds(fn, text: bytes) -> float:
    runs = []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        out = fn()
        runs.append(time.perf_counter() - t0)
        assert out == text
    return statistics.median(runs)


def test_table2_measured(benchmark, fastq_8m, reporter):
    text, gz = fastq_8m
    n = min(os.cpu_count() or 1, 32)  # 32: the paper's largest thread count

    def run():
        seconds = {
            "gzip_unwrap (verify)": _median_seconds(lambda: gzip_unwrap(gz), text),
            "CPython zlib": _median_seconds(lambda: zlib.decompress(gz, 31), text),
            f"pugz serial, {n} chunks": _median_seconds(
                lambda: pugz_decompress(gz, n_chunks=n, executor="serial"), text
            ),
        }
        with ProcessExecutor(n) as ex:
            assert pugz_decompress(gz, n_chunks=n, executor=ex) == text  # warm-up
            seconds[f"pugz, {n}-worker pool"] = _median_seconds(
                lambda: pugz_decompress(gz, n_chunks=n, executor=ex), text
            )
        return seconds

    seconds = benchmark.pedantic(run, rounds=1, iterations=1)
    cmb, umb = len(gz) / 1e6, len(text) / 1e6
    lines = [
        f"input: {cmb:.2f} MB gzip -6, {umb:.2f} MB out; median of {RUNS} runs",
        f"{'decoder':<26}{'seconds':>9}{'MB/s in':>9}{'MB/s out':>10}",
    ]
    for name, s in seconds.items():
        lines.append(f"{name:<26}{s:>9.3f}{cmb / s:>9.2f}{umb / s:>10.2f}")
    lines += ["", "paper Table II, compressed MB/s on its 2x12-core Xeon (context only):"]
    lines += [f"  {name:<24}{rate:>6.0f}" for name, rate in PAPER.items()]
    reporter("Table II (measured)", lines)
    benchmark.extra_info.update({name: cmb / s for name, s in seconds.items()})
