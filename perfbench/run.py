"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload gunzip --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/spec.json`` for seeds, sizes and the layer
each per-layer metric belongs to):

* ``gunzip``        — whole-file ``gzip_unwrap(verify=True)``;
* ``pugz_parallel`` — whole-file ``pugz_decompress`` on 2 worker processes;
* ``seek_mixed``    — random 4 KiB ``pread`` calls and short scans through
  ``SeekableGzipReader`` after its cold start.

With ``--trace 0`` the run prints every end-to-end metric, measured with
tracing off.  Timings are normalized to a nominal machine speed with a
reference workload timed beside them (see ``perfbench/calibrate.py``);
the measured values are printed next to them.  With ``--trace 1`` it
prints every per-layer metric from a separate traced run and writes its
spans as Chrome trace-event JSON to
``.perfbench_work/traces/trace-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every
operation's bytes are checked against the generated corpus (and, for
whole-file workloads, against :func:`gzip.decompress`); a mismatch or
exception counts as a failed operation, reported as ``failed_frac``.

The parent process only generates inputs and aggregates: set-up and the
timed loop run in child processes, so each measurement starts from a
fresh interpreter and its peak memory is its own.  ``REPRO_KERNEL`` is
removed from the environment, so the program's default kernel selection
applies.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
sys.path[:0] = [ROOT, os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]

from perfbench import workloads as wl  # noqa: E402  (stdlib-only at import)
from perfbench.calibrate import normalize_once  # noqa: E402
from perfbench.inputs import CORPUS_BYTES, Inputs, corpus_seed, prepare  # noqa: E402

#: Every end-to-end metric with its unit, in ``BENCHMARK.json`` order.
END_TO_END = {
    "decompress_mb_s": "MB/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = {"gunzip": 7, "pugz_parallel": 7, "seek_mixed": 3}
#: Wall-clock budget of one invocation, children included.
BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


# -- child processes ----------------------------------------------------


def _child_main(args) -> dict:
    """Run inside a fresh interpreter: set up, then optionally measure."""
    os.environ.pop("REPRO_KERNEL", None)
    inputs = _inputs(args)
    gz_path = inputs.gz_paths[args.file_index]
    state, setup_s = wl.setup(args.workload, gz_path, args.sidecar_dir)
    tally = wl.Tally()
    with open(inputs.plain_path, "rb") as fh:
        reference = fh.read()
    if args.workload == "seek_mixed":
        tally.record(state.first == reference[:wl.READ_SIZE], "first touch")
    result = {
        "setup_raw_s": setup_s,
        "setup_s": normalize_once(setup_s),
        "kernel": wl.resolved_kernel(),
    }
    if args.role == "measure":
        result.update(_measure(args, state, inputs, reference, tally))
    result.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors)
    return result


def _measure(args, state, inputs, reference, tally) -> dict:
    if args.workload == "seek_mixed":
        raw, norm = wl.measure_seek(state, reference, args.seed, args.seconds, tally)
        out = {
            "latency_raw_s": raw["point"], "latency_s": norm["point"],
            "scan_raw_s": raw["scan"], "scan_s": norm["scan"],
        }
    else:
        items = wl.whole_inputs(inputs, reference)
        raw, norm, usizes = wl.measure_whole(state, items, args.seconds, tally)
        out = {"latency_raw_s": raw, "latency_s": norm, "usizes": usizes}
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_kb"] = own + workers
    return out


def _trace_main(args) -> dict:
    """The traced run, in a fresh interpreter."""
    from perfbench import traced
    from perfbench.tracing import write_chrome_trace

    os.environ.pop("REPRO_KERNEL", None)
    inputs = _inputs(args)
    with open(inputs.plain_path, "rb") as fh:
        reference = fh.read()
    tally = wl.Tally()
    if args.workload == "seek_mixed":
        metrics, tracers, lines = traced.trace_seek(
            inputs, reference, args.seed, args.seconds, tally, args.sidecar_dir
        )
    else:
        items = wl.whole_inputs(inputs, reference)
        run = traced.trace_gunzip if args.workload == "gunzip" else traced.trace_pugz
        metrics, tracers, lines = run(inputs, items, args.seconds, tally)
    os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
    write_chrome_trace(
        args.trace_out, tracers, {"workload": args.workload, "seed": args.seed}
    )
    lines.append(f"spans written to {os.path.relpath(args.trace_out, ROOT)}")
    return {
        "metrics": metrics,
        "kernel": wl.resolved_kernel(),
        "lines": lines,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
    }


def _inputs(args) -> Inputs:
    """The workload's inputs; generated by the parent, found by children."""
    index = wl.WORKLOADS.index(args.workload)
    return prepare(
        os.path.join(WORK_DIR, "inputs"),
        corpus_seed(index, args.seed),
        args.corpus_bytes,
        *wl.FILES[args.workload],
    )


def _spawn(args, role: str, deadline: float, file_index: int = 0, **extra) -> dict:
    """Run this script in ``role`` as a child; return its JSON result."""
    sidecar_dir = tempfile.mkdtemp(prefix="sidecar-", dir=WORK_DIR)
    cmd = [
        sys.executable, os.path.abspath(__file__), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--corpus-bytes", str(args.corpus_bytes),
        "--sidecar-dir", sidecar_dir, "--file-index", str(file_index),
    ]
    for key, value in extra.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{role} child ran past the {BUDGET_S:.0f} s budget")
    finally:
        shutil.rmtree(sidecar_dir, ignore_errors=True)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{role} child exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


# -- aggregation --------------------------------------------------------


def _p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def _timings(workload: str, setups: list[float], m: dict, key: str) -> dict:
    """Timing metrics from the children's ``key`` samples: ``""`` for
    the normalized ones, ``"raw_"`` for the measured ones."""
    lat = m[f"latency_{key}s"]
    if workload == "seek_mixed":
        scan = m[f"scan_{key}s"]
        mb_s = len(scan) * wl.READ_SIZE / 1e6 / sum(scan) if scan else 0.0
    else:  # median per-operation throughput; the files differ in size
        mb_s = statistics.median(u / t for u, t in zip(m["usizes"], lat)) / 1e6 if lat else 0.0
    return {
        "decompress_mb_s": mb_s,
        "latency_ms_p50": 1e3 * statistics.median(lat) if lat else 0.0,
        "latency_ms_p90": 1e3 * _p90(lat),
        "setup_s": statistics.median(setups),
    }


def end_to_end(workload: str, probes: list[dict], measured: dict) -> tuple[dict, dict]:
    """The end-to-end metrics of one run, and a note on each saying what
    it rests on (with the measured value of a normalized timing)."""
    children = probes + [measured]
    values = _timings(workload, [c["setup_s"] for c in children], measured, "")
    raw = _timings(workload, [c["setup_raw_s"] for c in children], measured, "raw_")
    values["peak_rss_mb"] = measured["peak_rss_kb"] / 1024
    n = len(measured["latency_s"])
    if workload == "seek_mixed":
        mb = f"over {len(measured['scan_s'])} scan reads"
        lat = f"{n} point reads"
    else:
        mb = f"median of {n} whole-file decompressions"
        lat = f"{n} whole-file decompressions"
    notes = {
        "decompress_mb_s": mb,
        "latency_ms_p50": f"median of {lat}",
        "latency_ms_p90": f"90th percentile of {lat}",
        "setup_s": f"median of {len(children)} set-ups",
    }
    for name in notes:
        notes[name] += f"; normalized, measured {raw[name]:.6g}"
    notes["peak_rss_mb"] = "process plus largest worker"
    return values, notes


def _run(args) -> tuple[list[str], dict]:
    deadline = time.monotonic() + BUDGET_S
    inputs = _inputs(args)
    files = f"{len(inputs.gz_paths)} files of " if len(inputs.gz_paths) > 1 else ""
    head = (
        f"workload {args.workload}  seed {args.seed}  corpus seed {inputs.corpus_seed}  "
        f"{files}{inputs.usize / 1e6:.2f} MB FASTQ-like, {inputs.csize / 1e6:.2f} MB gzip -6"
    )
    if args.trace:
        trace_out = os.path.join(WORK_DIR, "traces", f"trace-{args.workload}.json")
        from perfbench.traced import PER_LAYER

        res = _spawn(args, "trace", deadline, trace_out=trace_out)
        lines = [f"{head}  kernel {res['kernel']}  (traced run)"] + res["lines"]
        metrics = {
            name: {"value": res["metrics"][name], "unit": unit}
            for name, unit in PER_LAYER.items()
        }
        for name, m in metrics.items():
            lines.append(f"{name:<26}{m['value']:>16.6g} {m['unit']}")
        return lines, _result(lines, res, metrics)

    # Set-up j of seek_mixed cold-starts file j (see perfbench.inputs).
    n = SETUPS[args.workload]
    n_files = len(inputs.gz_paths)
    probes = [_spawn(args, "probe", deadline, j % n_files) for j in range(n - 1)]
    measured = _spawn(args, "measure", deadline, (n - 1) % n_files)
    values, notes = end_to_end(args.workload, probes, measured)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    lines = [f"{head}  kernel {measured['kernel']}"]
    for name, m in metrics.items():
        lines.append(f"{name:<18}{m['value']:>14.6g} {m['unit']:<5} ({notes[name]})")
    merged = {
        "attempted": measured["attempted"] + sum(p["attempted"] for p in probes),
        "failed": measured["failed"] + sum(p["failed"] for p in probes),
        "errors": measured["errors"] + [e for p in probes for e in p["errors"]],
    }
    return lines, _result(lines, merged, metrics)


def _result(lines: list[str], res: dict, metrics: dict) -> dict:
    attempted, failed = res["attempted"], res["failed"]
    lines.append(
        f"failed_frac       {failed / max(1, attempted):>14.6g} ratio "
        f"({failed} of {attempted} operations failed)"
    )
    for err in res["errors"]:
        lines.append(f"  failure: {err}")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a smaller corpus for the benchmark's own tests, and the
    # child roles the parent starts this script in.
    ap.add_argument("--corpus-bytes", type=int, default=CORPUS_BYTES, help=argparse.SUPPRESS)
    ap.add_argument("--file-index", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--role", choices=("main", "probe", "measure", "trace"), default="main",
                    help=argparse.SUPPRESS)
    for name in ("--sidecar-dir", "--trace-out"):
        ap.add_argument(name, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.role in ("probe", "measure"):
        print(json.dumps(_child_main(args)))
        return 0
    if args.role == "trace":
        print(json.dumps(_trace_main(args)))
        return 0
    missing = [p for p in ("src/repro/__init__.py", "benchmarks/bench_decode.py")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: program sources not found: {', '.join(missing)}", file=sys.stderr)
        return 2
    os.environ.pop("REPRO_KERNEL", None)
    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        lines, result = _run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
