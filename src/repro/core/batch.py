"""Multi-file batch decompression (the 100-file dataset workflow).

The paper's evaluation sweeps a corpus of archives; this driver runs
the parallel decompressor over many files with one shared executor,
collecting per-file reports — the shape of a real re-processing job
over an archive directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.pugz import PugzReport, pugz_decompress
from repro.errors import ReproError
from repro.parallel.executor import Executor, owned_executor

__all__ = ["BatchResult", "FileOutcome", "decompress_batch"]


@dataclass
class FileOutcome:
    """One file's result within a batch."""

    name: str
    ok: bool
    output_size: int = 0
    error: str = ""
    report: PugzReport | None = None


@dataclass
class BatchResult:
    outcomes: list[FileOutcome] = field(default_factory=list)

    @property
    def succeeded(self) -> list[FileOutcome]:
        return [o for o in self.outcomes if o.ok]

    @property
    def failed(self) -> list[FileOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def total_output(self) -> int:
        return sum(o.output_size for o in self.succeeded)


def decompress_batch(
    files: list[tuple[str, bytes]],
    sink,
    n_chunks: int = 4,
    executor: Executor | str = "serial",
    verify: bool = False,
    stop_on_error: bool = False,
) -> BatchResult:
    """Decompress ``(name, gz_bytes)`` pairs, streaming each output to
    ``sink(name, data)``.

    Failures are collected per file (a corrupt archive in a 100-file
    sweep must not abort the other 99) unless ``stop_on_error``.
    """
    result = BatchResult()
    with owned_executor(executor, n_chunks) as ex:
        for name, gz in files:
            try:
                out, report = pugz_decompress(
                    gz, n_chunks=n_chunks, executor=ex,
                    verify=verify, return_report=True,
                )
            except ReproError as exc:
                outcome = FileOutcome(name=name, ok=False, error=str(exc))
                result.outcomes.append(outcome)
                if stop_on_error:
                    raise
                continue
            sink(name, out)
            result.outcomes.append(
                FileOutcome(name=name, ok=True, output_size=len(out), report=report)
            )
    return result
