"""Where a pure-Python DEFLATE decoder spends its time.

Symbol decoding dominates, table building is per-block noise, and CRC
is the surcharge ``gzip_unwrap`` pays in Table II's measured rows.
"""

from __future__ import annotations

import pytest

from repro.data import gzip_zlib
from repro.perf.profiling import profile_inflate


def test_decode_profile(benchmark, fastq_4m, reporter):
    gz = gzip_zlib(fastq_4m[:2_000_000], 6)

    profile = benchmark.pedantic(lambda: profile_inflate(gz), rounds=1, iterations=1)

    lines = [f"{'stage':<24}{'seconds':>9}{'share':>8}"]
    for name, secs, frac in profile.rows():
        lines.append(f"{name:<24}{secs:>9.3f}{frac:>8.1%}")
    lines += [
        "",
        f"blocks: {profile.blocks}, output {profile.output_bytes / 1e6:.1f} MB, "
        f"decode {profile.decode_mbps:.2f} MB/s (output)",
    ]
    reporter("Profiling: pure-Python inflate cost centres", lines)
    benchmark.extra_info["decode_mbps"] = profile.decode_mbps

    # Symbol decoding must dominate; tables are a small share.
    rows = dict((name, frac) for name, _, frac in profile.rows())
    assert rows["symbol decode + copies"] > 0.5
    assert rows["huffman tables"] < 0.2
    # CRC adds measurable but sub-dominant cost.
    assert 0.0 < rows["crc32"] < 0.5
