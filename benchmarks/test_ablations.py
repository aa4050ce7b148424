"""Ablations of the design choices DESIGN.md calls out.

* confirmation depth (the paper decompresses "five more blocks" after
  a candidate): specificity vs probe cost;
* marker-domain overhead: the price of provenance tracking in pass 1
  (why pugz's per-thread speed is gunzip-class, not libdeflate-class);
* chunk count: two-pass overhead as chunking gets finer.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.marker_inflate import marker_inflate
from repro.core.pugz import pugz_decompress
from repro.core.sync import find_block_start
from repro.data import gzip_zlib
from repro.deflate.gzipfmt import parse_gzip_header
from repro.deflate.inflate import inflate


@pytest.fixture(scope="module")
def stream(fastq_4m):
    gz = gzip_zlib(fastq_4m, 6)
    full = inflate(gz, start_bit=80)
    return gz, full, fastq_4m


def test_ablation_confirm_blocks(benchmark, stream, reporter):
    """Sweep the confirmation depth 0-5; all must stay exact on real
    boundaries, cost grows mildly with depth."""
    gz, full, _ = stream
    target = full.blocks[3]
    start = full.blocks[2].start_bit + 1

    def run():
        rows = {}
        for depth in (0, 1, 2, 5):
            t0 = time.perf_counter()
            sync = find_block_start(gz, start_bit=start, confirm_blocks=depth)
            rows[depth] = (sync.bit_offset, time.perf_counter() - t0)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{'confirm':>8}{'found bit':>12}{'seconds':>9}"]
    for d, (bit, secs) in rows.items():
        lines.append(f"{d:>8}{bit:>12}{secs:>9.3f}")
    lines.append("paper uses 5 confirmation blocks.")
    reporter("Ablation: sync confirmation depth", lines)

    for d, (bit, _) in rows.items():
        assert bit == target.start_bit, f"depth {d} found the wrong boundary"


def test_ablation_marker_overhead(benchmark, stream, reporter):
    """Cost of the marker alphabet vs plain byte decoding."""
    gz, _, text = stream
    start, *_ = parse_gzip_header(gz)
    mb = len(gz) / 1e6

    def run():
        t0 = time.perf_counter()
        inflate(gz, start_bit=8 * start)
        byte_rate = mb / (time.perf_counter() - t0)
        t0 = time.perf_counter()
        marker_inflate(gz, start_bit=8 * start)
        marker_rate = mb / (time.perf_counter() - t0)
        return byte_rate, marker_rate

    byte_rate, marker_rate = benchmark.pedantic(run, rounds=1, iterations=1)
    overhead = byte_rate / marker_rate
    reporter(
        "Ablation: marker-domain overhead",
        [
            f"byte-domain decode:   {byte_rate:6.2f} MB/s",
            f"marker-domain decode: {marker_rate:6.2f} MB/s",
            f"overhead factor:      {overhead:6.2f}x",
            "the marker-domain pass 1 pays this over a byte-domain decode.",
        ],
    )
    benchmark.extra_info["overhead"] = overhead
    assert 1.0 < overhead < 10.0


def test_ablation_chunk_overhead(benchmark, stream, reporter):
    """Two-pass overhead as a function of chunk count (serial, so the
    delta is pure algorithmic cost: syncs, markers, translation)."""
    gz, _, text = stream

    def run():
        rows = {}
        for n in (1, 2, 4, 8):
            t0 = time.perf_counter()
            out, rep = pugz_decompress(gz, n_chunks=n, return_report=True)
            dt = time.perf_counter() - t0
            assert out == text
            rows[n] = (dt, rep.sync_seconds, rep.pass2_seconds,
                       sum(rep.chunk_marker_counts))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{'chunks':>7}{'total s':>9}{'sync s':>8}{'pass2 s':>9}{'markers':>10}"]
    for n, (dt, sync_s, p2, markers) in rows.items():
        lines.append(f"{n:>7}{dt:>9.2f}{sync_s:>8.2f}{p2:>9.3f}{markers:>10}")
    reporter("Ablation: chunk-count overhead (serial execution)", lines)

    # More chunks -> more markers to resolve (monotone in expectation).
    assert rows[8][3] >= rows[2][3]
    # Single-chunk path has no sync or pass-2 cost.
    assert rows[1][1] == 0.0 or rows[1][1] < 0.05
    assert rows[1][3] == 0
