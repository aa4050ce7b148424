"""The two-pass decompression schedule, priced with a :class:`CostModel`.

:func:`simulate_pugz` runs the schedule of :mod:`repro.core.pugz` —
chunk the payload, pass 1 on ``n`` workers, sequential context
resolution, pass 2 translation on ``n`` workers — against the
throughput constants of a :class:`~repro.perf.costmodel.CostModel`.
Its one user is the repo benchmark's traced scaling report
(``perfbench/traced.py``, ``scaling.model_speedup``), which prints it
beside the measured speedup.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf.costmodel import CostModel

__all__ = ["SimResult", "simulate_pugz"]


@dataclass
class SimResult:
    """One simulated decompression run."""

    wall_seconds: float
    #: Compressed MB/s (the paper's Table II / Figure 5 unit).
    speed_mbps: float
    sync_seconds: float
    pass1_seconds: float
    resolve_seconds: float
    pass2_seconds: float


def simulate_pugz(model: CostModel, compressed_mb: float, n_threads: int) -> SimResult:
    """Simulate one pugz run with ``n_threads`` threads (= equal chunks).

    One sync latency is charged for any ``n_threads > 1`` (the
    boundaries are taken to probe concurrently), and ``n > cores``
    threads timeshare the cores, so a pass takes
    ``max(total / cores, one chunk)``.
    """
    if n_threads < 1:
        raise ValueError("n_threads must be >= 1")
    eff = model.effective_threads(n_threads)
    chunk_mb = compressed_mb / n_threads
    sync = model.sync_seconds if n_threads > 1 else 0.0
    pass1 = max(compressed_mb / eff, chunk_mb) / model.pass1_mbps
    resolve = model.resolve_seconds_per_boundary * (n_threads - 1)
    # Pass 2 translates the uncompressed bytes of chunks 1..n-1.
    tail_mb = (compressed_mb - chunk_mb) * model.compression_ratio
    pass2 = 0.0
    if n_threads > 1:
        pass2 = max(tail_mb / eff, chunk_mb * model.compression_ratio) / model.translate_mbps
    wall = sync + pass1 + resolve + pass2
    return SimResult(
        wall_seconds=wall,
        speed_mbps=compressed_mb / wall,
        sync_seconds=sync,
        pass1_seconds=pass1,
        resolve_seconds=resolve,
        pass2_seconds=pass2,
    )
