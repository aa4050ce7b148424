"""Throughput constants of one machine, for :mod:`repro.perf.simulator`.

Its one user is the repo benchmark's traced ``pugz_parallel`` run
(``perfbench/traced.py``, ``_scaling``): it fills a :class:`CostModel`
from the stage rates of a measured serial-executor run and prints
``simulate_pugz``'s 1 -> 2 worker speedup (``scaling.model_speedup``)
beside the measured one.  Figure 5 and Table II are measured, not
modelled (``benchmarks/test_fig5_scaling.py``,
``benchmarks/test_table2_throughput.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    """Throughput constants of one machine, in MB/s.

    "Compressed MB/s" rates are over the compressed stream (the paper's
    reporting unit); translation is over uncompressed bytes.
    """

    #: Sequential gunzip-class decode, compressed MB/s.
    gunzip_mbps: float
    #: Sequential libdeflate-class decode, compressed MB/s.
    libdeflate_mbps: float
    #: Marker-domain (pass 1) decode per thread, compressed MB/s.
    pass1_mbps: float
    #: Marker translation (pass 2) per thread, uncompressed MB/s.
    translate_mbps: float
    #: ``cat``-style memory streaming, MB/s.
    cat_mbps: float
    #: Physical cores; threads beyond this add no throughput.
    physical_cores: int
    #: Wall seconds to sync one chunk boundary.
    sync_seconds: float
    #: Sequential context resolution per boundary (n x 32 KiB memcpy).
    resolve_seconds_per_boundary: float
    #: Uncompressed/compressed size ratio of the workload (~3x for FASTQ).
    compression_ratio: float

    def effective_threads(self, n_threads: int) -> int:
        """Usable concurrency (capped at physical cores)."""
        return max(1, min(n_threads, self.physical_cores))
