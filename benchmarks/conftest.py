"""Shared benchmark fixtures and the paper-vs-measured report helper.

Every bench prints the rows/series of the corresponding paper table or
figure, with the paper's published values alongside for comparison, and
also stores them in ``benchmark.extra_info`` so the JSON export carries
them.  Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import sys

import pytest


import os

#: All report blocks are also appended here, so a plain
#: ``pytest benchmarks/ --benchmark-only`` run leaves the full
#: paper-vs-measured record on disk even without ``-s``.
REPORT_PATH = os.environ.get("REPRO_REPORT_FILE", "benchmarks/last_report.txt")


def report(title: str, lines: list[str]) -> None:
    """Print a framed report block and append it to the report file."""
    bar = "=" * max(len(title) + 4, 60)
    out = "\n".join(["", bar, f"| {title}", bar, *lines, bar, ""])
    print(out, file=sys.stderr)
    try:
        with open(REPORT_PATH, "a") as fh:
            fh.write(out + "\n")
    except OSError:
        pass


@pytest.fixture(scope="session")
def reporter():
    return report


@pytest.fixture(scope="session")
def dna_1m():
    """1 Mbp of random DNA — the paper's Section IV-C input."""
    from repro.data import random_dna

    return random_dna(1_000_000, seed=190517)


@pytest.fixture(scope="session")
def fastq_4m():
    """~4.6 MB synthetic FASTQ with safe qualities (resolvable)."""
    from repro.data import synthetic_fastq

    return synthetic_fastq(12_000, read_length=150, seed=101, quality_profile="safe")


@pytest.fixture(scope="session")
def fastq_cross_4m():
    """~4.6 MB synthetic FASTQ with cross-matching content."""
    from repro.data import synthetic_fastq

    return synthetic_fastq(
        12_000, read_length=150, seed=103,
        quality_profile="illumina", barcode="ATCACG",
    )


@pytest.fixture(scope="session")
def fastq_8m():
    """``(text, gz)``: the 8 MB FASTQ-like corpus of the repo benchmark's
    workloads (``bench_decode.make_corpus(8_000_000, 1002)``), gzip -6.
    Figure 5 and Table II measure on it."""
    import gzip

    from bench_decode import make_corpus

    text = make_corpus(8_000_000, 1002)
    return text, gzip.compress(text, 6, mtime=0)
