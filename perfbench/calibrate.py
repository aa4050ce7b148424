"""Machine-speed reference: rescales timings to one nominal machine state.

The 2-vCPU virtual machines this benchmark runs on share their physical
cores with other tenants, and their speed drifts by tens of percent
over minutes: the same deterministic gunzip run takes 2.1 s in one
minute and 2.9 s a few minutes later.  No run length averages that
away.  So each run also times a fixed reference workload — a
pure-Python table-lookup loop, the kind of interpreter-bound work most
of the decoder is — next to its operations, and every timing is
reported rescaled to the reference workload's nominal duration
:data:`NOMINAL_S`:

    normalized seconds = measured seconds * NOMINAL_S / reference seconds

where the reference seconds are the mean of the reference runs just
before and just after the operation.  Over 25-second windows of
back-to-back gunzip runs, this cut the spread between windows' median
times from 22% to 6% on that machine.  The reference workload never
calls the program, so a change to the program moves the normalized
figures exactly as it moves the measured ones.  Both are printed.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: Typical duration of :func:`reference_work` on such a 2-vCPU machine;
#: it only sets the units of the normalized timings.
NOMINAL_S = 0.025

_TABLE = [((i * 2654435761) >> 7) & 0xFFFFFFFF for i in range(256)]
_BYTES = bytes(range(256)) * 800


def reference_work() -> float:
    """Run the fixed reference workload once; returns its seconds."""
    t0 = time.perf_counter()
    table = _TABLE
    c = 0xFFFFFFFF
    for b in _BYTES:
        c = table[(c ^ b) & 0xFF] ^ (c >> 8)
    return time.perf_counter() - t0


class Calibrator:
    """Reference runs interleaved with a timed loop.

    Call :meth:`tick` before each operation (it runs the reference when
    the last run is ``every_s`` old) and :meth:`sample` once after the
    loop; then :meth:`normalize` rescales an operation by the reference
    runs around it.
    """

    def __init__(self, every_s: float = 0.0) -> None:
        self.every_s = every_s
        self._ends: list[float] = []
        self._starts: list[float] = []
        self._secs: list[float] = []

    def tick(self) -> None:
        if not self._ends or time.perf_counter() - self._ends[-1] >= self.every_s:
            self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        secs = reference_work()
        self._starts.append(start)
        self._secs.append(secs)
        self._ends.append(start + secs)

    def normalize(self, start: float, seconds: float) -> float:
        """``seconds`` of an operation that began at ``start``, rescaled."""
        before = bisect.bisect_right(self._ends, start) - 1
        after = bisect.bisect_left(self._starts, start + seconds)
        around = [self._secs[i] for i in (before, after) if 0 <= i < len(self._secs)]
        return seconds * NOMINAL_S / statistics.fmean(around)


def normalize_once(seconds: float, samples: int = 3) -> float:
    """Rescale a one-off timing (a set-up) by reference runs made now."""
    return seconds * NOMINAL_S / statistics.median(reference_work() for _ in range(samples))
