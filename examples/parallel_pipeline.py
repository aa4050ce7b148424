#!/usr/bin/env python3
"""A bioinformatics pipeline head: parallel decompression into k-mer counting.

The paper's motivation (Section I): "virtually every tool that
processes large amounts of raw sequencing data begins by reading large
.fastq.gz file(s)".  This example builds that pipeline head — pugz
chunks feed a k-mer counter — and exploits the property the paper
highlights for Table II: when read order is irrelevant (as in k-mer
counting), chunk outputs can be consumed without any synchronisation::

    python examples/parallel_pipeline.py
"""

from collections import Counter

from repro.core import pugz_decompress
from repro.data import gzip_zlib, parse_fastq, synthetic_fastq


def count_kmers(reads: list[bytes], k: int = 8) -> Counter:
    counts: Counter = Counter()
    for read in reads:
        for i in range(len(read) - k + 1):
            counts[read[i : i + k]] += 1
    return counts


def main() -> None:
    text = synthetic_fastq(2000, read_length=100, seed=99)
    gz = gzip_zlib(text, level=6)
    print(f"input: {len(gz):,} bytes compressed FASTQ")

    # Head of the pipeline: exact parallel decompression.
    out = pugz_decompress(gz, n_chunks=4, executor="serial")
    records = parse_fastq(out)
    print(f"decompressed and parsed {len(records):,} reads")

    # Body: k-mer counting (order-independent, so in a multi-core
    # deployment each pugz chunk would feed a counter thread directly).
    counts = count_kmers([r.sequence for r in records], k=8)
    top = counts.most_common(3)
    print(f"distinct 8-mers: {len(counts):,}; most frequent: "
          + ", ".join(f"{k.decode()}x{v}" for k, v in top))


if __name__ == "__main__":
    main()
