#!/usr/bin/env python3
"""The paper's Figure 3 — the two-pass schedule — as measured stage times.

Figure 3 illustrates pugz's structure: boundary sync, a parallel first
pass with undetermined windows, a (cheap, sequential) resolution step,
and a parallel translation pass.  This example runs pugz once on 4
chunks with the serial executor and prints how long each stage took,
chunk by chunk, and the critical path a core per chunk would leave::

    python examples/fig3_two_pass_schedule.py
"""

import time

from repro.core import pugz_decompress
from repro.data import gzip_zlib, synthetic_fastq


def main() -> None:
    n_chunks = 4
    text = synthetic_fastq(3000, read_length=150, seed=103, quality_profile="safe")
    gz = gzip_zlib(text, level=6)

    t0 = time.perf_counter()
    out, rep = pugz_decompress(gz, n_chunks=n_chunks, executor="serial", return_report=True)
    wall = time.perf_counter() - t0
    assert out == text

    print(f"two-pass decompression of {len(gz):,} gzip bytes, {n_chunks} chunks, "
          f"serial executor (measured)\n")
    rows = [("boundary sync (parent, serial searches)", rep.sync_seconds, "")]
    for d, size, markers in zip(rep.chunk_details, rep.chunk_output_sizes,
                                rep.chunk_marker_counts):
        rows.append((f"pass 1, chunk {d.index}", d.wall_time,
                     f"{size:>9,} bytes out, {markers:>7,} markers"))
    rows += [("context resolution (sequential)", rep.resolve_seconds, ""),
             ("pass 2, translation", rep.pass2_seconds, "")]
    for label, seconds, extra in rows:
        print(f"  {label:<40}{seconds * 1e3:8.1f} ms  {extra}".rstrip())

    slowest = max(d.wall_time for d in rep.chunk_details)
    path = rep.sync_seconds + slowest + rep.resolve_seconds + rep.pass2_seconds
    print(f"\nwall on one core: {wall * 1e3:.0f} ms; critical path with a core per "
          f"chunk: {path * 1e3:.0f} ms ({wall / path:.2f}x)")
    print("resolution is negligible and translation cheap, so pass 1 and the")
    print("parent's serial boundary searches decide the parallel wall.")


if __name__ == "__main__":
    main()
