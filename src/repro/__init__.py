"""Reproduction of "Parallel decompression of gzip-compressed files and
random access to DNA sequences" (Kerbiriou & Chikhi, IPPS 2019).

Top-level convenience API; see the subpackages for the full surface:

* :mod:`repro.deflate` — from-scratch DEFLATE/gzip codec substrate;
* :mod:`repro.core` — the paper's contributions: marker-domain
  decompression, block-start detection, the two-pass parallel
  decompressor (pugz), random access to FASTQ sequences;
* :mod:`repro.models` — the Section V analytic models;
* :mod:`repro.data` — DNA/FASTQ workload generators;
* :mod:`repro.perf` — decode kernels, profiling and a schedule model;
* :mod:`repro.analysis` — window/origin analyses behind the figures.
"""

from repro._version import __version__

__all__ = ["__version__"]
