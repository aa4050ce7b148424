"""Checkpoint index for gzip random access (paper related work, ref [11]).

Index sidecar files are persisted crash-safely: sealed with a version
and CRC32 (:mod:`repro.index.integrity`), written via atomic rename,
and self-healing on load (:func:`repro.index.zran.load_or_rebuild`).
:class:`repro.index.seekable.SeekableGzipReader` is the unified
front door: one file-like reader over the zran checkpoints, the BGZF
block table, and the pugz cold start.
"""

from repro.index.integrity import atomic_write_bytes, seal, unseal
from repro.index.seekable import SeekableGzipReader, SeekStats, detect_backend
from repro.index.zran import (
    DEFAULT_SPAN,
    Checkpoint,
    GzipIndex,
    build_index,
    load_or_rebuild,
)

__all__ = [
    "DEFAULT_SPAN",
    "build_index",
    "GzipIndex",
    "Checkpoint",
    "load_or_rebuild",
    "SeekableGzipReader",
    "SeekStats",
    "detect_backend",
    "seal",
    "unseal",
    "atomic_write_bytes",
]
