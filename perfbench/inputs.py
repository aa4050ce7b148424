"""Seeded benchmark inputs, generated once per seed and cached on disk.

Every workload decompresses single-member ``gzip -6`` files of the
FASTQ-like corpus from :func:`bench_decode.make_corpus`.  The corpus
seed is derived from the run's ``--seed`` and the workload, so two
workloads of one run never share an input.

A workload may ask for several files: prefixes of one corpus whose
lengths differ by a fixed step.  zlib closes a DEFLATE block every
16 Ki symbols (about 32 KiB of this corpus), so the blocks of such
prefixes line up while the payload's length, and with it every
block-start search target that ``pugz`` places at a fraction of the
payload, moves in known steps.  A search costs more the further its
target sits before the next block start, so one file would draw that
cost once per seed; several files average over it:

* ``pugz_parallel`` uses 4 files 16 KiB apart, which put the payload's
  midpoint (its only target on 2 workers) at 4 even positions in a block;
* ``seek_mixed`` uses 3 files one block apart, one per set-up, which
  shift the targets of the 8-chunk cold start by one block each.

Generation costs seconds, so the corpus and its gzip files are cached
under the work directory and reused by later runs with the same seed;
the cache is filled before anything is timed, and the least recently
used files beyond :data:`CACHE_BYTES` are deleted.
"""

from __future__ import annotations

import gzip
import os
from dataclasses import dataclass

#: Uncompressed size of the first (or only) file of every workload.
CORPUS_BYTES = 8_000_000
#: gzip level of the benchmark files (the paper's ``gzip -6``).
GZIP_LEVEL = 6
#: Size the input cache is trimmed to (a few seeds of every workload).
CACHE_BYTES = 300_000_000


@dataclass(frozen=True)
class Inputs:
    """One workload's generated files: prefixes of one corpus."""

    corpus_seed: int
    plain_path: str
    gz_paths: tuple[str, ...]
    #: Uncompressed size of each gzip file (its corpus prefix length).
    sizes: tuple[int, ...]

    @property
    def gz_path(self) -> str:
        return self.gz_paths[0]

    @property
    def usize(self) -> int:
        return self.sizes[0]

    @property
    def csize(self) -> int:
        return os.path.getsize(self.gz_paths[0])


def corpus_seed(workload_index: int, seed: int) -> int:
    """Generator seed of workload ``workload_index`` for run seed ``seed``."""
    return 1000 * seed + workload_index + 1


def _write_atomic(path: str, data: bytes) -> None:
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def prepare(
    cache_dir: str, seed: int, n_bytes: int = CORPUS_BYTES, n_files: int = 1, step: int = 0
) -> Inputs:
    """Return the cached inputs for ``seed``, generating what is absent:
    ``n_files`` gzip files of corpus prefixes ``step`` bytes apart."""
    os.makedirs(cache_dir, exist_ok=True)
    sizes = tuple(n_bytes + j * step for j in range(n_files))
    stem = os.path.join(cache_dir, f"fastq-{seed}-{n_bytes}")
    inputs = Inputs(
        seed, f"{stem}-{sizes[-1]}.txt", tuple(f"{stem}-{s}.txt.gz" for s in sizes), sizes
    )
    if not os.path.exists(inputs.plain_path):
        from bench_decode import make_corpus

        _write_atomic(inputs.plain_path, make_corpus(sizes[-1], seed))
    corpus = None
    for path, size in zip(inputs.gz_paths, sizes):
        if not os.path.exists(path):
            if corpus is None:
                with open(inputs.plain_path, "rb") as fh:
                    corpus = fh.read()
            _write_atomic(path, gzip.compress(corpus[:size], GZIP_LEVEL, mtime=0))
    _trim(cache_dir, (inputs.plain_path, *inputs.gz_paths))
    return inputs


def _trim(cache_dir: str, in_use: tuple[str, ...]) -> None:
    """Mark ``in_use`` as just used; delete the least recently used
    other files while the cache exceeds :data:`CACHE_BYTES`."""
    for path in in_use:
        os.utime(path)
    entries = sorted(
        (os.stat(e.path).st_mtime, e.stat().st_size, e.path)
        for e in os.scandir(cache_dir) if e.is_file()
    )
    total = sum(size for _, size, _ in entries)
    for _, size, path in entries:
        if total <= CACHE_BYTES:
            break
        if path not in in_use:
            os.remove(path)
            total -= size
