#!/usr/bin/env python3
"""Compare the three random-access strategies on the same FASTQ content.

Section II of the paper, as running code: blocked files (BGZF), a
checkpoint index, and pugz-style probing each solve random access with
a different trade-off::

    python examples/indexed_access.py
"""

import time

from repro.bgzf import BgzfReader, bgzf_compress
from repro.core import random_access_sequences
from repro.data import gzip_zlib, synthetic_fastq
from repro.index import build_index


def main() -> None:
    text = synthetic_fastq(6000, read_length=150, seed=101, quality_profile="safe")
    target = len(text) // 2
    want = text[target : target + 200]
    print(f"content: {len(text):,} bytes; extracting 200 bytes at {target:,}\n")

    # Strategy 1: BGZF — pay compression ratio, get O(1) access.
    bg = bgzf_compress(text, 6)
    t0 = time.perf_counter()
    reader = BgzfReader(bg)
    got = reader.read_at(target, 200)
    t_bgzf = time.perf_counter() - t0
    assert got == want
    print(f"BGZF:    file {len(bg):,} B, access {t_bgzf * 1e3:6.1f} ms, exact")

    # Strategy 2: checkpoint index — plain gzip + a sidecar built by
    # one full sequential pass.
    gz = gzip_zlib(text, 6)
    t0 = time.perf_counter()
    idx = build_index(gz)
    t_build = time.perf_counter() - t0
    t0 = time.perf_counter()
    got = idx.read_at(gz, target, 200)
    t_idx = time.perf_counter() - t0
    assert got == want
    print(
        f"index:   file {len(gz):,} B + sidecar {len(idx.to_bytes()):,} B, "
        f"build {t_build:.1f} s, access {t_idx * 1e3:6.1f} ms, exact"
    )

    # Strategy 3: pugz-style probing — nothing but the gzip file.
    t0 = time.perf_counter()
    report = random_access_sequences(gz, len(gz) // 2)
    t_probe = time.perf_counter() - t0
    frac = report.unambiguous_fraction
    print(
        f"probing: file {len(gz):,} B only, access {t_probe:6.1f} s, "
        f"{'no resolved block' if frac is None else f'{frac:.0%} of sequences unambiguous'}"
    )
    print("\ntrade-off (paper Section II): blocked formats and indexes buy")
    print("exact fast access with format/sidecar costs; probing works on")
    print("any gzip file you are handed, approximately at high levels.")


if __name__ == "__main__":
    main()
