"""The traced run (``--trace 1``): per-layer metrics of one workload.

Operations alternate between untraced and traced; the per-layer metrics
come from the traced ones, and the difference between the two kinds is
the tracing overhead.  Counts and seconds are per operation: per
whole-file decompression on ``gunzip`` and ``pugz_parallel``, per
4 KiB read on ``seek_mixed`` — except the cold-start layers of
``seek_mixed`` (sync, both passes, index build and save), which are
per cold start.

``pugz_parallel`` runs its workers in other processes, whose spans
cannot come back.  Its parent-side layers (sync, resolve, the executor)
are traced on the 2-worker process run; its in-worker layers (inflate,
kernel, marker decode, translation) are traced on the serial executor
with the same input.  The run also measures parallel scaling: 1 and 2
workers, next to the :func:`repro.perf.simulator.simulate_pugz`
prediction.
"""

from __future__ import annotations

import statistics
import time

from perfbench.tracing import InstrumentedExecutor, Tracer
from perfbench.workloads import (
    READ_SIZE,
    WORKERS,
    seek_op,
    seek_ops,
    setup,
    stage_split,
    whole_op,
)

#: Every per-layer metric with its unit, in ``BENCHMARK.json`` order.
PER_LAYER = {
    "io.pread_calls": "count",
    "io.pread_bytes": "bytes",
    "io.pread_s": "s",
    "io.read_amplification": "ratio",
    "sync.s": "s",
    "sync.searches": "count",
    "sync.candidates_tried": "count",
    "sync.accept_ratio": "ratio",
    "pass1.s": "s",
    "pass1.worker_s_max": "s",
    "pass1.worker_s_sum": "s",
    "pass1.symbols": "count",
    "pass1.marker_frac": "ratio",
    "resolve.s": "s",
    "pass2.s": "s",
    "pass2.worker_s_sum": "s",
    "executor.map_calls": "count",
    "executor.overhead_s": "s",
    "executor.efficiency": "ratio",
    "executor.bytes_shipped": "bytes",
    "inflate.calls": "count",
    "inflate.s": "s",
    "inflate.out_mb_s": "MB/s",
    "kernel.decode_s": "s",
    "kernel.replay_s": "s",
    "kernel.blocks": "count",
    "kernel.fallbacks": "count",
    "crc.s": "s",
    "crc.bytes": "bytes",
    "crc.mb_s": "MB/s",
    "zran.read_at_calls": "count",
    "zran.inflate_calls": "count",
    "zran.decoded_bytes": "bytes",
    "zran.seek_amplification": "ratio",
    "index_build.s": "s",
    "index_build.checkpoints": "count",
    "index_build.span_bytes": "bytes",
    "index.save_s": "s",
    "index.sidecar_bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "stages.unexplained_frac": "ratio",
    "scaling.speedup": "ratio",
    "scaling.model_speedup": "ratio",
}

STAGES = ("sync", "pass1", "resolve", "pass2")


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _mean(xs) -> float:
    return statistics.fmean(xs) if xs else 0.0


# -- metric groups ------------------------------------------------------


def _decode_layers(m: dict, tr: Tracer, kind: str, per: int) -> None:
    """inflate, npkernel and CRC layers of ``kind`` operations."""
    inflate_s = tr.total(kind, "inflate")
    crc_s = tr.total(kind, "crc")
    crc_bytes = tr.counter(kind, "crc.bytes")
    m["inflate.calls"] = _div(tr.calls(kind, "inflate"), per)
    m["inflate.s"] = _div(inflate_s, per)
    m["inflate.out_mb_s"] = _div(tr.counter(kind, "inflate.out_bytes") / 1e6, inflate_s)
    m["kernel.decode_s"] = _div(tr.total(kind, "kernel.decode"), per)
    m["kernel.replay_s"] = _div(tr.total(kind, "kernel.replay"), per)
    m["kernel.blocks"] = _div(tr.counter(kind, "kernel.blocks"), per)
    m["kernel.fallbacks"] = _div(
        tr.counter(kind, "kernel.decode.fallbacks")
        + tr.counter(kind, "kernel.replay.fallbacks"),
        per,
    )
    m["crc.s"] = _div(crc_s, per)
    m["crc.bytes"] = _div(crc_bytes, per)
    m["crc.mb_s"] = _div(crc_bytes / 1e6, crc_s)


def _pugz_layers(m: dict, tr: Tracer, kind: str, per: int) -> None:
    """Sync, both passes and the executor, from the program's
    :class:`PugzReport` (read at each member) and the spans."""
    candidates = tr.counter(kind, "sync.candidates")
    symbols = tr.counter(kind, "pass1.symbols")
    m["sync.s"] = _div(tr.counter(kind, "stage.sync"), per)
    m["sync.searches"] = _div(tr.calls(kind, "sync.search"), per)
    m["sync.candidates_tried"] = _div(candidates, per)
    m["sync.accept_ratio"] = _div(tr.counter(kind, "sync.confirmed"), candidates)
    m["pass1.s"] = _div(tr.counter(kind, "stage.pass1"), per)
    m["pass1.worker_s_max"] = _div(tr.counter(kind, "pass1.worker_s_max"), per)
    m["pass1.worker_s_sum"] = _div(tr.counter(kind, "pass1.worker_s_sum"), per)
    m["pass1.symbols"] = _div(symbols, per)
    m["pass1.marker_frac"] = _div(tr.counter(kind, "pass1.markers"), symbols)
    m["resolve.s"] = _div(tr.counter(kind, "stage.resolve"), per)
    m["pass2.s"] = _div(tr.counter(kind, "stage.pass2"), per)
    pass2_maps = tr.maps_of(kind, "pass2")
    if pass2_maps:
        busy = sum(sum(mr.busy) for mr in pass2_maps)
    else:  # in-process executor: translation runs under the span
        busy = tr.total(kind, "pass2.translate")
    m["pass2.worker_s_sum"] = _div(busy, per)
    maps = tr.maps_of(kind)
    m["executor.map_calls"] = _div(len(maps), per)
    m["executor.overhead_s"] = _div(
        sum(mr.wall - max(mr.busy, default=0.0) for mr in maps), per
    )
    m["executor.efficiency"] = _div(
        sum(sum(mr.busy) for mr in maps), sum(mr.workers * mr.wall for mr in maps)
    )
    m["executor.bytes_shipped"] = _div(sum(mr.shipped_bytes for mr in maps), per)


def _self_time_lines(label: str, tr: Tracer) -> list[str]:
    rows = sorted(tr.self_times().items(), key=lambda kv: -kv[1][2])
    total_self = sum(r[2] for _, r in rows) or 1.0
    lines = [f"self time by layer [{label}]:",
             f"  {'span':<24}{'calls':>8}{'incl s':>10}{'self s':>10}{'self %':>8}"]
    for name, (calls, incl, own) in rows:
        lines.append(
            f"  {name:<24}{calls:>8}{incl:>10.4f}{own:>10.4f}{100 * own / total_self:>7.1f}%"
        )
    return lines


def _overhead(untraced: list[float], traced: list[float]) -> float:
    return _div(sum(traced) - sum(untraced), sum(untraced))


def _pairs(state, items, tally, seconds, traced_kw):
    """Alternate untraced and traced whole-file operations on the same
    file for ``seconds``, visiting the files round-robin; returns both
    kinds' ``(file index, seconds, report)``.

    One untraced warm-up operation runs first, so the process's lazy
    set-up is not charged to either side of the overhead.
    """
    tr: Tracer = traced_kw.pop("tracer")
    whole_op(state, items[0], tally)
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        k = i % len(items)
        i += 1
        u = whole_op(state, items[k], tally)
        with tr.installed(), tr.unit("whole"):
            t = whole_op(state, items[k], tally, **traced_kw)
        if u is not None and t is not None:
            untraced.append((k, *u))
            traced.append((k, *t))
    return untraced, traced


# -- workloads ----------------------------------------------------------


def trace_gunzip(inputs, items, seconds, tally):
    state, _ = setup("gunzip", inputs.gz_path, "")
    tr = Tracer()
    untraced, traced = _pairs(state, items, tally, seconds, {"tracer": tr})
    m = dict.fromkeys(PER_LAYER, 0.0)
    _decode_layers(m, tr, "whole", tr.n_units("whole"))
    m["trace.overhead_frac"] = _overhead([u[1] for u in untraced], [t[1] for t in traced])
    lines = [f"traced {len(traced)} whole-file decompressions (each paired with an untraced one)"]
    lines += _self_time_lines("gunzip", tr)
    return m, {"gunzip": tr}, lines


def trace_pugz(inputs, items, seconds, tally):
    from repro.parallel.executor import ProcessExecutor, SerialExecutor

    state, _ = setup("pugz_parallel", inputs.gz_path, "")
    tr = Tracer()
    ix = InstrumentedExecutor(WORKERS, tr)
    untraced, traced = _pairs(state, items, tally, seconds, {"tracer": tr, "executor": ix})
    # In-worker layers: the first file on the serial executor.
    tr_serial = Tracer()
    with tr_serial.installed(), tr_serial.unit("whole"):
        whole_op(state, items[0], tally, executor=SerialExecutor())
    serial = whole_op(state, items[0], tally, executor=SerialExecutor())
    one = whole_op(state, items[0], tally, executor=ProcessExecutor(1), n_chunks=1)

    m = dict.fromkeys(PER_LAYER, 0.0)
    _pugz_layers(m, tr, "whole", tr.n_units("whole"))
    _decode_layers(m, tr_serial, "whole", tr_serial.n_units("whole"))
    # Means, so that each wall time is exactly its stages plus the rest.
    wall_u = _mean([u[1] for u in untraced])
    wall_t = _mean([t[1] for t in traced])
    stages_t = {s: _mean([stage_split(t[2])[s] for t in traced]) for s in STAGES}
    stages_u = {s: _mean([stage_split(u[2])[s] for u in untraced]) for s in STAGES}
    unexplained = wall_t - sum(stages_t.values())
    m["trace.overhead_frac"] = _overhead([u[1] for u in untraced], [t[1] for t in traced])
    m["stages.unexplained_frac"] = _div(unexplained, wall_t)

    lines = [
        f"traced {len(traced)} decompressions on {WORKERS} worker processes, each paired "
        "with an untraced one",
        "spans cannot come back from process workers: inflate, kernel, marker decode and "
        "translation are traced on the serial executor with the same input",
        "stage accounting (means, s):",
        f"  untraced wall {wall_u:.4f} = stages {sum(stages_u.values()):.4f} "
        f"+ unexplained {wall_u - sum(stages_u.values()):.4f}",
        f"  traced wall   {wall_t:.4f} = sync {stages_t['sync']:.4f} + pass1 "
        f"{stages_t['pass1']:.4f} + resolve {stages_t['resolve']:.4f} + pass2 "
        f"{stages_t['pass2']:.4f} + unexplained {unexplained:.4f}",
        f"  tracing overhead (traced - untraced wall) {wall_t - wall_u:.4f}",
    ]
    first = [u[1:] for u in untraced if u[0] == 0]
    if serial is not None and one is not None and first:
        speedup, model_speedup, scaling_lines = _scaling(inputs, first, serial, one)
        m["scaling.speedup"] = speedup
        m["scaling.model_speedup"] = model_speedup
        lines += scaling_lines
    lines += _self_time_lines("pugz_parallel, 2 worker processes (parent side)", tr)
    lines += _self_time_lines("pugz_parallel, serial executor", tr_serial)
    return m, {"pugz_parallel.process": tr, "pugz_parallel.serial": tr_serial}, lines


def _scaling(inputs, untraced, serial, one):
    """Measured 1 -> 2 worker scaling beside the simulator's prediction,
    all on the first file; ``untraced`` holds its 2-worker runs.

    The :class:`~repro.perf.costmodel.CostModel` is calibrated on the
    stage rates of the serial-executor run of the same two chunks, i.e.
    every stage on one worker.
    """
    from repro.perf.costmodel import CostModel
    from repro.perf.simulator import simulate_pugz

    cmb = inputs.csize / 1e6
    umb = inputs.usize / 1e6
    s_wall, s_rep = serial
    one_wall, one_rep = one
    s_st = stage_split(s_rep)
    one_st = stage_split(one_rep)
    p_wall = _median([u[0] for u in untraced])
    p_st = {s: _median([stage_split(u[1])[s] for u in untraced]) for s in STAGES}
    tail_mb = sum(s_rep.chunk_output_sizes[1:]) / 1e6
    model = CostModel(
        gunzip_mbps=cmb / one_wall,
        libdeflate_mbps=cmb / one_wall,
        pass1_mbps=cmb / s_st["pass1"],
        translate_mbps=_div(tail_mb, s_st["pass2"]) or 1e9,
        cat_mbps=1e9,
        physical_cores=WORKERS,
        sync_seconds=s_st["sync"],
        resolve_seconds_per_boundary=s_st["resolve"] / max(1, len(s_rep.chunks) - 1),
        compression_ratio=umb / cmb,
    )
    pred = {n: simulate_pugz(model, cmb, n) for n in (1, WORKERS)}
    speedup = one_wall / p_wall
    model_speedup = pred[1].wall_seconds / pred[WORKERS].wall_seconds

    def row(label, wall, st):
        return (f"  {label:<26}{wall:>8.3f}" + "".join(f"{st[s]:>9.3f}" for s in STAGES))

    p2 = pred[WORKERS]
    model_st = {"sync": p2.sync_seconds, "pass1": p2.pass1_seconds,
                "resolve": p2.resolve_seconds, "pass2": p2.pass2_seconds}
    pass1_scale = _div(s_st["pass1"], p_st["pass1"])
    pass2_share = _div(p_st["pass2"], p_wall)
    lines = [
        f"parallel scaling on the pugz_parallel input ({cmb:.2f} MB gzip, {umb:.2f} MB out), "
        "seconds:",
        f"  {'run':<26}{'wall':>8}" + "".join(f"{s:>9}" for s in STAGES),
        row("1 worker, 1 chunk", one_wall, one_st),
        row("serial, 2 chunks", s_wall, s_st),
        row(f"{WORKERS} workers, 2 chunks", p_wall, p_st),
        row(f"model, {WORKERS} threads", p2.wall_seconds, model_st),
        f"  speedup 1 -> {WORKERS} workers: measured {speedup:.2f}x, simulate_pugz "
        f"{model_speedup:.2f}x (CostModel calibrated on the serial run's stage rates); "
        f"same two chunks serial -> {WORKERS} workers: {s_wall / p_wall:.2f}x",
        "  where the model and the code disagree:",
        f"  - sync: the model charges one concurrent sync latency for any n > 1 "
        f"({p2.sync_seconds:.3f} s); plan_chunks runs the n - 1 boundary searches serially "
        f"in the parent ({p_st['sync']:.3f} s measured here), so at n chunks the code pays "
        "n - 1 searches where the model pays one",
        f"  - pass 1: model {p2.pass1_seconds:.3f} s, measured {p_st['pass1']:.3f} s; the "
        "model has no pool start-up, pickling or result transfer",
        f"  - pass 2: model {p2.pass2_seconds:.3f} s, measured {p_st['pass2']:.3f} s under "
        f"the process pool ({_div(p_st['pass2'], s_st['pass2']):.1f}x its serial cost)",
        f"  - 1 worker: the code decodes the lone chunk in the byte domain "
        f"({cmb / one_st['pass1']:.2f} MB/s gzip) where the model applies the serial "
        f"pass-1 rate ({model.pass1_mbps:.2f} MB/s)",
        f"  paper claim 'pass 2 is cheap': pass 2 is {100 * pass2_share:.1f}% of the "
        f"{WORKERS}-worker wall time -> {'holds' if pass2_share < 0.2 else 'does not hold'} "
        "(threshold 20%)",
        f"  paper claim 'pass 1 scales': serial / {WORKERS}-worker pass-1 time = "
        f"{pass1_scale:.2f}x of an ideal {WORKERS}.00x -> "
        f"{'holds' if pass1_scale >= 0.75 * WORKERS else 'does not hold'} (threshold 75% of ideal)",
    ]
    return speedup, model_speedup, lines


def trace_seek(inputs, reference, seed, seconds, tally, sidecar_dir):
    tr = Tracer()
    with tr.installed(), tr.unit("cold"):
        state, _ = setup("seek_mixed", inputs.gz_path, sidecar_dir)
    tally.record(state.first == reference[:READ_SIZE], "first touch")
    stats = state.reader.stats
    untraced: list[float] = []
    traced: list[float] = []
    decoded = inflates = 0
    deadline = time.perf_counter() + seconds
    for i, (kind, offset) in enumerate(seek_ops(seed, state.usize)):
        if i >= 2 and time.perf_counter() >= deadline:
            break
        if i % 2 == 0:
            untraced += seek_op(state, reference, kind, offset, tally)
            continue
        before = (stats.inflate_calls, stats.decoded_bytes)
        with tr.installed(), tr.unit("read"):
            traced += seek_op(state, reference, kind, offset, tally)
        inflates += stats.inflate_calls - before[0]
        decoded += stats.decoded_bytes - before[1]

    n = len(traced)
    served = n * READ_SIZE
    m = dict.fromkeys(PER_LAYER, 0.0)
    _decode_layers(m, tr, "read", n)
    _pugz_layers(m, tr, "cold", 1)
    pread_bytes = tr.counter("read", "io.pread_bytes")
    m["io.pread_calls"] = _div(tr.calls("read", "io.pread"), n)
    m["io.pread_bytes"] = _div(pread_bytes, n)
    m["io.pread_s"] = _div(tr.total("read", "io.pread"), n)
    m["io.read_amplification"] = _div(pread_bytes, served)
    m["zran.read_at_calls"] = _div(tr.calls("read", "zran.read_at"), n)
    m["zran.inflate_calls"] = _div(inflates, n)
    m["zran.decoded_bytes"] = _div(decoded, n)
    m["zran.seek_amplification"] = _div(decoded, served)
    m["index_build.s"] = tr.total("cold", "index_build")
    m["index_build.checkpoints"] = tr.counter("cold", "index_build.checkpoints")
    m["index_build.span_bytes"] = tr.counter("cold", "index_build.span_bytes")
    m["index.save_s"] = tr.total("cold", "index.save")
    m["index.sidecar_bytes"] = tr.counter("cold", "index.sidecar_bytes")
    m["trace.overhead_frac"] = _div(_median(traced), _median(untraced)) - 1.0
    lines = [
        f"traced the cold start and {n} of {n + len(untraced)} 4 KiB reads "
        "(alternate operations traced)",
        f"SeekStats over the traced reads: {inflates} inflate calls, {decoded} bytes "
        f"decoded for {served} served",
    ]
    lines += _self_time_lines("seek_mixed", tr)
    return m, {"seek_mixed": tr}, lines
