"""The benchmark's three workloads: set-up, timed operations, checks.

* ``gunzip`` — whole-file :func:`repro.deflate.gzipfmt.gzip_unwrap`
  with CRC verification (the ``repro decompress`` path);
* ``pugz_parallel`` — whole-file :func:`repro.core.pugz.pugz_decompress`
  on a 2-worker :class:`~repro.parallel.executor.ProcessExecutor`, one
  chunk per worker, verification off;
* ``seek_mixed`` — a :class:`~repro.index.seekable.SeekableGzipReader`
  over a path with an index sidecar and the reader's defaults; a seeded
  stream of random 4 KiB ``pread`` calls and short scans of consecutive
  4 KiB ``read`` calls.

Each workload is a closed loop with one client.  Nothing here imports
:mod:`repro` at module level: :func:`setup` does, so that imports count
into the measured set-up time.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import random
import time
from dataclasses import dataclass, field

from perfbench.calibrate import Calibrator

WORKLOADS = ("gunzip", "pugz_parallel", "seek_mixed")
#: Worker processes (and chunks) of ``pugz_parallel``: one per core.
WORKERS = 2
#: Size of every read of ``seek_mixed``.
READ_SIZE = 4096
#: Consecutive ``read`` calls of one scan.
SCAN_READS = 4
#: Share of ``seek_mixed`` operations that are point reads.
POINT_SHARE = 0.8
#: ``(files, length step)`` per workload (see :mod:`perfbench.inputs`):
#: the steps average the block-start search cost over its start position.
FILES = {"gunzip": (1, 0), "pugz_parallel": (4, 16384), "seek_mixed": (3, 32768)}
SIDECAR_NAME = "corpus.gz.idx"
#: Golden-ratio step of the low-discrepancy offset sequences.
_PHI = (5 ** 0.5 - 1) / 2
#: Error messages kept per run (the count is always complete).
_MAX_ERRORS = 5


@dataclass
class Tally:
    """Operations attempted and failed; a failure never aborts a run."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, ok: bool, why: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < _MAX_ERRORS:
                self.errors.append(why)
        return ok

    def fail(self, exc: BaseException) -> None:
        self.record(False, f"{type(exc).__name__}: {exc}")


class WholeFile:
    """``gunzip`` and ``pugz_parallel``: one operation decompresses the
    whole file and returns ``(bytes, PugzReport | None)``."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        if workload == "gunzip":
            from repro.deflate.gzipfmt import gzip_unwrap

            self._unwrap = gzip_unwrap
        else:
            from repro.core.pugz import pugz_decompress
            from repro.parallel.executor import ProcessExecutor

            self._pugz = pugz_decompress
            self.executor = ProcessExecutor(WORKERS)

    def decompress(self, data: bytes, executor=None, n_chunks: int = WORKERS):
        if self.workload == "gunzip":
            return self._unwrap(data, verify=True), None
        return self._pugz(
            data,
            n_chunks=n_chunks,
            executor=executor if executor is not None else self.executor,
            return_report=True,
        )


class Seek:
    """``seek_mixed``: a reader whose first touch was the cold start."""

    def __init__(self, gz_path: str, sidecar_dir: str) -> None:
        from repro.index.seekable import SeekableGzipReader

        self.reader = SeekableGzipReader(
            gz_path, index_path=os.path.join(sidecar_dir, SIDECAR_NAME)
        )
        self.first = self.reader.pread(0, READ_SIZE)

    @property
    def usize(self) -> int:
        return self.reader.usize


def setup(workload: str, gz_path: str, sidecar_dir: str):
    """Build the workload's program state; returns ``(state, seconds)``.

    The seconds cover the imports of the program's modules, executor
    or reader construction and, for ``seek_mixed``, the first touch:
    the cold-start index build and the sidecar write.
    """
    t0 = time.perf_counter()
    if workload == "seek_mixed":
        state = Seek(gz_path, sidecar_dir)
    else:
        state = WholeFile(workload)
    return state, time.perf_counter() - t0


def resolved_kernel() -> str:
    """Drop any caller-set ``REPRO_KERNEL`` and return the kernel the
    program's default selection resolves to."""
    os.environ.pop("REPRO_KERNEL", None)
    from repro.perf.kernels import resolve_kernel

    return resolve_kernel(None).name


# -- timed operations ------------------------------------------------


@dataclass(frozen=True)
class WholeFileInput:
    """One gzip file of a whole-file workload and what its output must be."""

    gz_path: str
    usize: int
    #: The generated corpus prefix the file was compressed from.
    reference: memoryview
    #: SHA-256 of :func:`gzip.decompress` of the file.
    gzip_digest: bytes

    def matches(self, out: bytes) -> bool:
        return out == self.reference and hashlib.sha256(out).digest() == self.gzip_digest


def whole_inputs(inputs, plain: bytes) -> list[WholeFileInput]:
    """The checked inputs of a whole-file workload (outside any timing)."""
    items = []
    for path, size in zip(inputs.gz_paths, inputs.sizes):
        with open(path, "rb") as fh:
            digest = hashlib.sha256(gzip.decompress(fh.read())).digest()
        items.append(WholeFileInput(path, size, memoryview(plain)[:size], digest))
    return items


def whole_op(state: WholeFile, item: WholeFileInput, tally: Tally, **kw):
    """One whole-file decompression, checked against both references.

    Returns ``(seconds, report)``, or ``None`` when it failed.  The
    compressed file is read outside the timing, as a fresh object each
    time, so no decode cache keyed on the buffer survives between
    operations.
    """
    with open(item.gz_path, "rb") as fh:
        data = fh.read()
    t0 = time.perf_counter()
    try:
        out, report = state.decompress(data, **kw)
    except Exception as exc:  # counted, never fatal: failed_frac reports it
        tally.fail(exc)
        return None
    dt = time.perf_counter() - t0
    if not tally.record(item.matches(out), f"{os.path.basename(item.gz_path)}: output differs"):
        return None
    return dt, report


def seek_ops(seed: int, usize: int):
    """The seeded ``seek_mixed`` operation stream: ``("point", offset)``
    or ``("scan", offset)`` items, forever.

    Offsets follow golden-ratio sequences from seeded starting points,
    so each run covers the file evenly; the distances from the index
    checkpoints then vary little from one seed to the next.
    """
    rng = random.Random(seed)
    start = {"point": rng.random(), "scan": rng.random()}
    span = {"point": usize - READ_SIZE, "scan": usize - SCAN_READS * READ_SIZE}
    count = {"point": 0, "scan": 0}
    while True:
        kind = "point" if rng.random() < POINT_SHARE else "scan"
        frac = (start[kind] + count[kind] * _PHI) % 1.0
        count[kind] += 1
        yield kind, int(frac * span[kind])


def seek_op(state: Seek, reference: bytes, kind: str, offset: int, tally: Tally):
    """Run one point read or scan; returns the seconds of each
    successful 4 KiB read call."""
    reader = state.reader
    times: list[float] = []
    if kind == "point":
        t0 = time.perf_counter()
        try:
            out = reader.pread(offset, READ_SIZE)
        except Exception as exc:  # counted, never fatal
            tally.fail(exc)
            return times
        dt = time.perf_counter() - t0
        if tally.record(out == reference[offset : offset + READ_SIZE], f"pread at {offset}"):
            times.append(dt)
        return times
    reader.seek(offset)
    for i in range(SCAN_READS):
        pos = offset + i * READ_SIZE
        t0 = time.perf_counter()
        try:
            out = reader.read(READ_SIZE)
        except Exception as exc:  # the cursor is unknown: end the scan
            tally.fail(exc)
            break
        dt = time.perf_counter() - t0
        if tally.record(out == reference[pos : pos + READ_SIZE], f"read at {pos}"):
            times.append(dt)
    return times


def measure_whole(state: WholeFile, items: list[WholeFileInput], seconds: float, tally: Tally):
    """Closed loop of whole-file decompressions for ``seconds``,
    visiting the files round-robin, with a machine-speed reference run
    before each (see :mod:`perfbench.calibrate`).

    Returns the measured and the normalized seconds and the uncompressed
    size of every successful operation.
    """
    cal = Calibrator()
    ops: list[tuple[float, float, int]] = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        item = items[i % len(items)]
        i += 1
        cal.tick()
        start = time.perf_counter()
        res = whole_op(state, item, tally)
        if res is not None:
            ops.append((start, res[0], item.usize))
    cal.sample()
    norm = [cal.normalize(start, dt) for start, dt, _ in ops]
    return [dt for _, dt, _ in ops], norm, [usize for _, _, usize in ops]


def measure_seek(state: Seek, reference: bytes, seed: int, seconds: float, tally: Tally):
    """Closed loop of the seeded ``seek_mixed`` stream for ``seconds``,
    with a machine-speed reference run about twice a second.

    Returns ``{"point": [...], "scan": [...]}`` of the read calls'
    measured seconds and the same of their normalized seconds.
    """
    cal = Calibrator(every_s=0.5)
    reads: dict[str, list[tuple[float, float]]] = {"point": [], "scan": []}
    deadline = time.perf_counter() + seconds
    for kind, offset in seek_ops(seed, state.usize):
        if time.perf_counter() >= deadline:
            break
        cal.tick()
        start = time.perf_counter()
        reads[kind] += [(start, dt) for dt in seek_op(state, reference, kind, offset, tally)]
    cal.sample()
    raw = {k: [dt for _, dt in v] for k, v in reads.items()}
    norm = {k: [cal.normalize(start, dt) for start, dt in v] for k, v in reads.items()}
    return raw, norm


def stage_split(report) -> dict:
    """The four stage timers of a :class:`~repro.core.pugz.PugzReport`."""
    return {
        "sync": report.sync_seconds,
        "pass1": report.pass1_seconds,
        "resolve": report.resolve_seconds,
        "pass2": report.pass2_seconds,
    }
