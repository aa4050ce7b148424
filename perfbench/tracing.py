"""Spans around the calls the benchmark makes into each layer.

The program itself records no spans, so this module wraps each layer's
public entry points from outside, for the length of a ``with
tracer.installed():`` block, and restores the originals afterwards.  A
name is patched where its caller looks it up (``repro.core.pugz``
imports ``plan_chunks`` by name, so that module's attribute is the one
replaced).  Spans stay in memory and are written out as Chrome
trace-event JSON at the end of a run.

Process workers run copies of the wrapped functions, but their spans
die with the worker: the parent sees a worker only through
:class:`InstrumentedExecutor`, which times each task inside the worker
and computes the pickled size of tasks and results.  Layers that run
inside workers are traced on the serial executor instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.parallel.executor import ProcessExecutor


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    #: Index into :attr:`Tracer.units` of the operation it belongs to.
    unit: int | None


@dataclass
class MapRecord:
    """One :meth:`Executor.map` call seen by :class:`InstrumentedExecutor`."""

    unit: int | None
    stage: str
    wall: float
    busy: list[float]
    workers: int
    shipped_bytes: int


@dataclass
class Tracer:
    """In-memory spans and counters, grouped by operation ("unit")."""

    spans: list[Span] = field(default_factory=list)
    #: Kind of each unit, e.g. ``"whole"`` for a whole-file decompression.
    units: list[str] = field(default_factory=list)
    maps: list[MapRecord] = field(default_factory=list)
    _counts: dict = field(default_factory=lambda: defaultdict(float))
    _stack: list[int] = field(default_factory=list)
    _unit: int | None = None
    _t0: float = field(default_factory=time.perf_counter)

    # -- recording ----------------------------------------------------

    @contextmanager
    def unit(self, kind: str):
        """Attribute everything recorded inside the block to one new
        operation of ``kind``."""
        self.units.append(kind)
        prev, self._unit = self._unit, len(self.units) - 1
        try:
            yield
        finally:
            self._unit = prev

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, parent, name, time.perf_counter(), 0.0, self._unit))
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        kind = self.units[self._unit] if self._unit is not None else None
        self._counts[(kind, name)] += value

    def record_map(self, stage, wall, busy, workers, shipped) -> None:
        self.maps.append(MapRecord(self._unit, stage, wall, busy, workers, shipped))

    # -- queries (restricted to units of one kind) ---------------------

    def n_units(self, kind: str) -> int:
        return sum(1 for k in self.units if k == kind)

    def _of(self, kind: str):
        return (s for s in self.spans if s.unit is not None and self.units[s.unit] == kind)

    def calls(self, kind: str, name: str) -> int:
        return sum(1 for s in self._of(kind) if s.name == name)

    def total(self, kind: str, name: str) -> float:
        return sum(s.end - s.start for s in self._of(kind) if s.name == name)

    def counter(self, kind: str, name: str) -> float:
        return self._counts.get((kind, name), 0.0)

    def maps_of(self, kind: str, stage: str | None = None) -> list[MapRecord]:
        return [
            m for m in self.maps
            if m.unit is not None and self.units[m.unit] == kind
            and (stage is None or m.stage == stage)
        ]

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """``{span name: (calls, inclusive s, self s)}``; self time is a
        span's duration minus the part its direct children cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, list] = {}
        for s in self.spans:
            row = out.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.end - s.start
            row[2] += s.end - s.start - child[s.id]
        return {k: tuple(v) for k, v in out.items()}

    def chrome_events(self, pid: int, pid_label: str) -> list[dict]:
        events = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": pid_label}}
        ]
        for s in self.spans:
            events.append({
                "name": s.name,
                "ph": "X",
                "pid": pid,
                "tid": 0,
                "ts": round((s.start - self._t0) * 1e6, 3),
                "dur": round((s.end - s.start) * 1e6, 3),
                "args": {
                    "unit": self.units[s.unit] if s.unit is not None else None,
                    "unit_id": s.unit,
                    "parent": s.parent,
                },
            })
        return events

    # -- patching -----------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every entry point in :data:`ENTRY_POINTS` for the block."""
        undo = []
        try:
            for module, attr, name, hook in ENTRY_POINTS:
                owner = importlib.import_module(module)
                path = attr.split(".")
                for part in path[:-1]:
                    owner = getattr(owner, part)
                original = owner.__dict__[path[-1]]
                setattr(owner, path[-1], _wrap(self, name, original, hook))
                undo.append((owner, path[-1], original))
            yield self
        finally:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)


def _wrap(tracer: Tracer, name: str, fn, hook):
    from repro.perf.npkernel import Fallback

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except Fallback:
            tracer.count(f"{name}.fallbacks")
            raise
        finally:
            tracer.end(sid)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return traced


# -- hooks: counts taken where the work happens ------------------------


def _pread(tr, args, kw, result):
    tr.count("io.pread_bytes", len(result))


def _sync_search(tr, args, kw, result):
    tr.count("sync.candidates", result.candidates_tried)
    tr.count("sync.confirmed")


def _inflate(tr, args, kw, result):
    tr.count("inflate.out_bytes", len(result.data))


def _decode_block(tr, args, kw, result):
    tr.count("kernel.blocks")


def _crc(tr, args, kw, result):
    tr.count("crc.bytes", len(args[0]))


def _save(tr, args, kw, result):
    tr.count("index.sidecar_bytes", os.path.getsize(args[1]))


def _index_build(tr, args, kw, result):
    _, index = result
    offs = [cp.uoffset for cp in index.checkpoints] + [index.usize]
    tr.count("index_build.checkpoints", len(index.checkpoints))
    tr.count("index_build.span_bytes", max(b - a for a, b in zip(offs, offs[1:])))


def _payload(tr, args, kw, result):
    """Read the program's own :class:`PugzReport` of one member."""
    report = kw["report"]
    tr.count("stage.sync", report.sync_seconds)
    tr.count("stage.pass1", report.pass1_seconds)
    tr.count("stage.resolve", report.resolve_seconds)
    tr.count("stage.pass2", report.pass2_seconds)
    walls = [d.wall_time for d in report.chunk_details]
    tr.count("pass1.worker_s_max", max(walls, default=0.0))
    tr.count("pass1.worker_s_sum", sum(walls))
    tr.count("pass1.symbols", sum(report.chunk_output_sizes))
    tr.count("pass1.markers", sum(report.chunk_marker_counts))


#: ``(module, attribute, span name, hook)`` for every wrapped entry point.
ENTRY_POINTS = [
    ("repro.io.source", "ByteSource.pread", "io.pread", _pread),
    ("repro.core.pugz", "plan_chunks", "sync", None),
    ("repro.core.chunking", "find_block_start", "sync.search", _sync_search),
    ("repro.core.pugz", "pugz_decompress_payload", "pugz.payload", _payload),
    ("repro.core.parallel_index", "pugz_decompress_payload", "pugz.payload", _payload),
    ("repro.core.pugz", "marker_inflate", "pass1.marker_inflate", None),
    ("repro.core.marker", "resolve", "marker.resolve", None),
    ("repro.core.pugz", "translate_chunk_counted", "pass2.translate", None),
    ("repro.deflate.gzipfmt", "inflate", "inflate", _inflate),
    ("repro.core.pugz", "inflate", "inflate", _inflate),
    ("repro.core.sync", "inflate", "inflate", _inflate),
    ("repro.index.zran", "inflate", "inflate", _inflate),
    ("repro.perf.npkernel", "StreamKernel.decode_block", "kernel.decode", _decode_block),
    ("repro.perf.npkernel", "replay_bytes", "kernel.replay", None),
    ("repro.perf.npkernel", "replay_symbols", "kernel.replay", None),
    ("repro.deflate.gzipfmt", "crc32", "crc", _crc),
    ("repro.index.zran", "GzipIndex.read_at", "zran.read_at", None),
    ("repro.index.zran", "GzipIndex.save", "index.save", _save),
    ("repro.core.parallel_index", "pugz_build_index", "index_build", _index_build),
]


# -- the executor seen from the parent ---------------------------------


def _busy_call(packed):
    """Run one task in the worker and time it there."""
    fn, item = packed
    t0 = time.perf_counter()
    value = fn(item)
    return value, time.perf_counter() - t0


def _stage_of(fn, items) -> str:
    inner = items[0][0] if fn.__name__ == "_outcome_call" and items else fn
    return {"_pass1_chunk": "pass1", "_pass2_chunk": "pass2"}.get(
        getattr(inner, "__name__", ""), "other"
    )


class InstrumentedExecutor(ProcessExecutor):
    """A :class:`ProcessExecutor` that records each ``map`` call: its
    wall time, every task's busy time inside its worker, and the
    pickled size of tasks plus results (computed with :mod:`pickle`,
    not measured on the pipe)."""

    def __init__(self, n_workers: int, tracer: Tracer) -> None:
        super().__init__(n_workers)
        self.tracer = tracer

    def map(self, fn, items: list) -> list:
        stage = _stage_of(fn, items)
        sid = self.tracer.begin(f"executor.map.{stage}")
        t0 = time.perf_counter()
        packed = super().map(_busy_call, [(fn, item) for item in items])
        wall = time.perf_counter() - t0
        self.tracer.end(sid)
        results = [value for value, _ in packed]
        shipped = sum(
            len(pickle.dumps((fn, item), pickle.HIGHEST_PROTOCOL)) for item in items
        ) + sum(len(pickle.dumps(r, pickle.HIGHEST_PROTOCOL)) for r in results)
        self.tracer.record_map(
            stage, wall, [busy for _, busy in packed], self.n_workers, shipped
        )
        return results


def write_chrome_trace(path: str, tracers: dict[str, Tracer], meta: dict) -> None:
    """Write every tracer's spans as one Chrome trace-event file
    (opens in Perfetto or ``chrome://tracing``)."""
    events = []
    for pid, (label, tracer) in enumerate(tracers.items(), start=1):
        events.extend(tracer.chrome_events(pid, label))
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}, fh)
    os.replace(tmp, path)
