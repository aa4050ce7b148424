"""Execution backends for the parallel decompressor.

Three interchangeable strategies behind one ``map``-shaped interface:

* :class:`SerialExecutor` — reference implementation, no concurrency;
* :class:`ThreadExecutor` — ``threading``-based; on CPython the GIL
  serialises the pure-Python decode work, so this demonstrates the
  *algorithm's* concurrency, not wall-clock scaling (see DESIGN.md);
* :class:`ProcessExecutor` — ``multiprocessing``-based; truly parallel
  on multi-core machines (pugz's scaling on warm pools is measured by
  ``benchmarks/test_fig5_scaling.py``; see EXPERIMENTS.md, Figure 5).

Work functions submitted to :class:`ProcessExecutor` must be picklable
(module-level functions).

Lifetime
--------

A :class:`ProcessExecutor` starts its process pool on the first map
with more than one item and reuses it for every later map, so a
decompression pays pool start-up once, not once per pass or per
member.  Workers start then (forked, on Linux): they see the
environment (variables such as ``REPRO_KERNEL``, monkeypatched
globals) as it was at that first map, not as it is at later ones.  A map that loses a worker
(``BrokenProcessPool``) drops the pool, and the next map starts a
fresh one.  :meth:`Executor.close` stops the workers; every executor
is also a context manager that closes on exit.  Library functions
that build an executor from a name (``executor="process"``) close it
before they return, so no worker outlives the call; an executor passed
in as an instance stays open for its owner to close.

Supervision
-----------

:meth:`Executor.map_outcomes` optionally takes a
:class:`~repro.parallel.supervision.SupervisionPolicy`: per-task
deadlines, hung-worker detection (a process pool with a stuck worker is
killed and rebuilt), and bounded seeded-backoff retries for *execution*
faults.  Without a policy the unsupervised fast path runs unchanged.
"""

from __future__ import annotations

import os
import time
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "Executor",
    "Outcome",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "make_executor",
    "owned_executor",
    "EXECUTOR_KINDS",
]

#: Valid ``kind`` values for :func:`make_executor`.
EXECUTOR_KINDS = ("serial", "thread", "process")


@dataclass
class Outcome:
    """Result of one item of a fault-tolerant map.

    Exactly one of ``value`` / ``error`` is meaningful: ``error`` is
    ``None`` for a successful item and the raised exception otherwise.
    ``retries`` counts *additional* attempts beyond the first (0 for an
    unsupervised or first-try run) and ``wall_time`` is the in-worker
    seconds of the attempt that produced this outcome.
    """

    index: int
    value: object = None
    error: BaseException | None = None
    retries: int = 0
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


def _outcome_call(packed):
    """Run one item, capturing any exception instead of raising.

    Module-level so :class:`ProcessExecutor` can pickle it; the captured
    exception travels back pickled (``ReproError`` preserves its
    structured context across that boundary via ``__reduce__``).
    Returns ``(ok, value_or_error, wall_seconds)``.
    """
    fn, item = packed
    t0 = time.perf_counter()
    try:
        value = fn(item)
        return True, value, time.perf_counter() - t0
    except Exception as exc:
        return False, exc, time.perf_counter() - t0


class Executor(ABC):
    """Minimal ordered-map execution interface."""

    @abstractmethod
    def map(self, fn, items: list) -> list:
        """Apply ``fn`` to every item, returning results in input order."""

    def map_outcomes(self, fn, items: list, policy=None) -> list[Outcome]:
        """Apply ``fn`` to every item, capturing per-item exceptions.

        Unlike :meth:`map`, one failing item does not abort the pool or
        discard the other items' finished work: every item produces an
        :class:`Outcome`, in input order.  This is the engine hook for
        graceful degradation (``pugz_decompress(..., on_error="recover")``).

        ``policy`` (a :class:`~repro.parallel.supervision.SupervisionPolicy`)
        additionally enforces per-task deadlines and retries execution
        faults with seeded exponential backoff — see
        :mod:`repro.parallel.supervision`.
        """
        if policy is not None and policy.active:
            from repro.parallel.supervision import supervised_map_outcomes

            return supervised_map_outcomes(self, fn, items, policy)
        packed = self.map(_outcome_call, [(fn, item) for item in items])
        return [
            Outcome(index=i, value=v, wall_time=dt)
            if ok
            else Outcome(index=i, error=v, wall_time=dt)
            for i, (ok, v, dt) in enumerate(packed)
        ]

    @property
    @abstractmethod
    def parallelism(self) -> int:
        """Number of workers this executor can run concurrently."""

    def close(self) -> None:
        """Release any workers this executor holds (idempotent)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(Executor):
    """Run everything inline, in order.

    Having no worker to preempt, it cannot interrupt a task that
    overruns a supervision deadline; deadlines are checked *between*
    tasks only (retries and backoff still apply — see
    :mod:`repro.parallel.supervision`).
    """

    def map(self, fn, items: list) -> list:
        return [fn(item) for item in items]

    @property
    def parallelism(self) -> int:
        return 1


class ThreadExecutor(Executor):
    """Thread-pool execution (GIL-bound for pure-Python work)."""

    def __init__(self, n_workers: int | None = None) -> None:
        self.n_workers = n_workers or (os.cpu_count() or 1)

    def map(self, fn, items: list) -> list:
        if len(items) <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=self.n_workers) as pool:
            return list(pool.map(fn, items))

    @property
    def parallelism(self) -> int:
        return self.n_workers


class ProcessExecutor(Executor):
    """Process-pool execution (true parallelism on multi-core hosts).

    One pool serves every map from the first multi-item map until
    :meth:`close` (see the module docstring's *Lifetime*).
    """

    def __init__(self, n_workers: int | None = None) -> None:
        self.n_workers = n_workers or (os.cpu_count() or 1)
        self._pool: ProcessPoolExecutor | None = None

    def map(self, fn, items: list) -> list:
        if len(items) <= 1:
            return [fn(item) for item in items]
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.n_workers)
        try:
            return list(self._pool.map(fn, items))
        except BrokenProcessPool:
            self.close()
            raise

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    @property
    def parallelism(self) -> int:
        return self.n_workers


def make_executor(kind: str = "serial", n_workers: int | None = None) -> Executor:
    """Build an executor from a name: ``serial``, ``thread`` or ``process``.

    ``n_workers`` must be ``None`` (use the CPU count) or >= 1;
    :class:`SerialExecutor` accepts but ignores it (it always runs one
    task at a time).  Unknown kinds and non-positive worker counts
    raise ``ValueError`` with the offending value spelled out.
    """
    if n_workers is not None and n_workers < 1:
        raise ValueError(
            f"n_workers must be >= 1 (or None for the CPU count), got {n_workers}"
        )
    if kind == "serial":
        return SerialExecutor()
    if kind == "thread":
        return ThreadExecutor(n_workers)
    if kind == "process":
        return ProcessExecutor(n_workers)
    raise ValueError(
        f"unknown executor kind {kind!r}; valid kinds: {', '.join(EXECUTOR_KINDS)}"
    )


@contextmanager
def owned_executor(executor: Executor | str, n_workers: int | None = None):
    """Yield ``executor``, building it with :func:`make_executor` when it
    is a name — and closing what was built here on exit.  An
    :class:`Executor` instance is yielded as is and left open: its
    owner closes it."""
    if isinstance(executor, str):
        with make_executor(executor, n_workers) as built:
            yield built
    else:
        yield executor
