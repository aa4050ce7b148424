"""Figure 5: pugz decompression speed against thread count, measured.

The paper measures pugz at 1-32 threads on a 2x12-core Xeon.  This
benchmark measures, on the machine it runs on, one 8 MB FASTQ-like
corpus (``bench_decode.make_corpus(8_000_000, 1002)``, gzip -6; the
``fastq_8m`` fixture):

* the critical path of the two-pass schedule at 1-32 chunks, from one
  serial-executor run per chunk count: ``sync_seconds`` (the parent's
  block-start searches, which run one after another) + the slowest
  chunk's pass-1 ``wall_time`` + ``resolve_seconds`` +
  ``pass2_seconds``.  The serial wall over the critical path is the
  speedup one core per chunk would give the same run, with free
  transfers between processes;
* real process-pool walls at 1..``os.cpu_count()`` workers (one chunk
  per worker), the median of :data:`POOL_RUNS` runs on one warm
  :class:`~repro.parallel.executor.ProcessExecutor` per worker count:
  an untimed first run pays the pool's start-up;
* ``cat``: reading the compressed file from the page cache.

Only measured facts are asserted: exact output of every run; pass 2
under 20 % of the critical path at every chunk count; and the 2-worker
pool wall within :data:`POOL_FACTOR` of the 2-chunk critical path.  On
a 2-vCPU Xeon VM that ratio measured 1.07 and 0.91 in two idle runs
(pool 0.614 s against a 0.576 s critical path, then 0.582 against
0.643 s), and 1.28 with a second test run competing for the vCPUs.
The factor leaves room for a loaded runner, not for a pool that runs
its two chunks one after another: that is the serial 2-chunk wall,
1.75-1.84 times its critical path in the same runs.

Run: ``python -m pytest benchmarks/test_fig5_scaling.py --benchmark-disable -q -s``
"""

from __future__ import annotations

import os
import statistics
import time

from repro.core.pugz import pugz_decompress
from repro.parallel.executor import ProcessExecutor

CHUNKS = (1, 2, 4, 8, 16, 32)
#: Timed runs per worker count on a warm pool (the median is reported).
POOL_RUNS = 3
#: The 2-worker pool wall may exceed the 2-chunk critical path by this.
POOL_FACTOR = 1.5


def _critical_path(rep) -> dict[str, float]:
    slowest = max(d.wall_time for d in rep.chunk_details)
    parts = {
        "sync": rep.sync_seconds,
        "chunk": slowest,
        "resolve": rep.resolve_seconds,
        "pass2": rep.pass2_seconds,
    }
    parts["path"] = sum(parts.values())
    return parts


def _pool_walls(gz: bytes, text: bytes, workers) -> dict[int, float]:
    walls = {}
    for n in workers:
        with ProcessExecutor(n) as ex:
            assert pugz_decompress(gz, n_chunks=n, executor=ex) == text  # warm-up
            runs = []
            for _ in range(POOL_RUNS):
                t0 = time.perf_counter()
                out = pugz_decompress(gz, n_chunks=n, executor=ex)
                runs.append(time.perf_counter() - t0)
                assert out == text
        walls[n] = statistics.median(runs)
    return walls


def _cat_mb_s(path: str, size: int) -> float:
    with open(path, "rb") as fh:  # into the page cache
        fh.read()
    runs = []
    for _ in range(5):
        t0 = time.perf_counter()
        with open(path, "rb") as fh:
            fh.read()
        runs.append(time.perf_counter() - t0)
    return size / 1e6 / statistics.median(runs)


def test_fig5_measured_scaling(benchmark, fastq_8m, reporter, tmp_path):
    text, gz = fastq_8m
    cmb = len(gz) / 1e6
    workers = range(1, min(os.cpu_count() or 1, CHUNKS[-1]) + 1)

    def run():
        rows = {}
        for n in CHUNKS:
            t0 = time.perf_counter()
            out, rep = pugz_decompress(gz, n_chunks=n, executor="serial", return_report=True)
            wall = time.perf_counter() - t0
            assert out == text
            rows[n] = (wall, _critical_path(rep))
        return rows, _pool_walls(gz, text, workers)

    rows, pool = benchmark.pedantic(run, rounds=1, iterations=1)
    path = tmp_path / "in.gz"
    path.write_bytes(gz)
    cat = _cat_mb_s(str(path), len(gz))

    serial_1 = rows[1][0]
    lines = [
        f"input: {cmb:.2f} MB gzip -6, {len(text) / 1e6:.2f} MB out; serial executor, "
        "seconds",
        f"{'chunks':>6}{'sync':>8}{'chunk':>8}{'resolve':>9}{'pass 2':>8}{'path':>8}"
        f"{'wall':>8}{'wall/path':>10}{'1-chunk wall/path':>18}{'MB/s':>7}",
    ]
    for n, (wall, cp) in rows.items():
        lines.append(
            f"{n:>6}{cp['sync']:>8.3f}{cp['chunk']:>8.3f}{cp['resolve']:>9.4f}"
            f"{cp['pass2']:>8.3f}{cp['path']:>8.3f}{wall:>8.3f}{wall / cp['path']:>10.2f}"
            f"{serial_1 / cp['path']:>18.2f}{cmb / cp['path']:>7.2f}"
        )
    lines += [
        "  chunk = slowest chunk's pass 1; path = sync + chunk + resolve + pass 2;",
        "  wall = this serial run's wall; MB/s = compressed MB / path",
        "",
        f"warm process pool, one chunk per worker, median of {POOL_RUNS} runs:",
        f"{'workers':>7}{'wall s':>9}{'MB/s':>7}{'speedup':>9}",
    ]
    for n, wall in pool.items():
        lines.append(f"{n:>7}{wall:>9.3f}{cmb / wall:>7.2f}{pool[1] / wall:>9.2f}")
    lines += [
        "",
        f"cat (compressed file from the page cache): {cat:,.0f} MB/s",
        "paper Figure 5 (2x12-core Xeon, for context only): pugz reaches",
        "~611 MB/s at 32 threads, gunzip 37 and libdeflate 118 MB/s.",
    ]
    reporter("Figure 5 (measured): critical path and pool walls", lines)
    benchmark.extra_info.update(
        {
            "critical_path_s": {str(n): cp["path"] for n, (_, cp) in rows.items()},
            "serial_wall_s": {str(n): wall for n, (wall, _) in rows.items()},
            "pool_wall_s": {str(n): wall for n, wall in pool.items()},
            "cat_mb_s": cat,
        }
    )

    for n, (_, cp) in rows.items():
        assert cp["pass2"] < 0.2 * cp["path"], (n, cp)
    if 2 in pool:
        assert pool[2] < POOL_FACTOR * rows[2][1]["path"], (pool[2], rows[2][1])
