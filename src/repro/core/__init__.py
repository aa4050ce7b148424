"""The paper's core contributions.

* :mod:`repro.core.marker` / :mod:`repro.core.marker_inflate` —
  undetermined-context decompression over a marker alphabet
  (Sections IV-B and VI-C);
* :mod:`repro.core.sync` — DEFLATE block-start detection by exhaustive
  bit probing with the Appendix X-A checks (Section VI-A);
* :mod:`repro.core.chunking` / :mod:`repro.core.pugz` /
  :mod:`repro.core.translate` — the exact two-pass parallel
  decompressor (Section VI-C, Figure 3);
* :mod:`repro.core.sequences` / :mod:`repro.core.random_access` —
  heuristic random access to DNA sequences in FASTQ files
  (Sections VI-B, VII-A, Appendix X-B).
"""

from repro.core.batch import BatchResult, FileOutcome, decompress_batch
from repro.core.guess import GuessReport, guess_markers
from repro.core.marker_inflate import MarkerInflateResult, marker_inflate
from repro.core.parallel_index import pugz_build_index
from repro.core.pigz import pigz_compress
from repro.core.recovery import RecoveryReport, locate_corruption, recover
from repro.core.pugz import (
    PugzHole,
    PugzReport,
    iter_pugz,
    pugz_decompress,
    pugz_decompress_payload,
)
from repro.core.random_access import RandomAccessReport, random_access_sequences
from repro.core.seqstream import StreamingSequenceExtractor
from repro.core.sequences import ExtractedSequence, extract_sequences
from repro.core.sync import SyncResult, find_block_start, probe_block

__all__ = [
    "marker_inflate",
    "MarkerInflateResult",
    "pugz_decompress",
    "pugz_decompress_payload",
    "PugzReport",
    "PugzHole",
    "iter_pugz",
    "random_access_sequences",
    "RandomAccessReport",
    "extract_sequences",
    "ExtractedSequence",
    "StreamingSequenceExtractor",
    "find_block_start",
    "probe_block",
    "SyncResult",
    "guess_markers",
    "GuessReport",
    "pigz_compress",
    "pugz_build_index",
    "recover",
    "locate_corruption",
    "RecoveryReport",
    "decompress_batch",
    "BatchResult",
    "FileOutcome",
]
