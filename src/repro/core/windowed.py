"""Memory-bounded parallel decompression (the paper's projected fix).

Discussion section: *"the current implementation requires the whole
decompressed file to reside in memory, yet further engineering efforts
could lift this limitation with little projected impact on
performance. [...] The memory requirements can be reduced by processing
in parallel only a portion of the file at a time."*

This module is the streaming face of :mod:`repro.core.pugz`'s one
driver: the planned chunks are decoded ``stripe_chunks`` at a time,
each stripe's output is handed on before the next stripe starts, and
only the 32 KiB boundary context, the previous chunk's end bit and the
BFINAL stop cross from one stripe to the next.  Peak memory is
O(stripe size), independent of file size.  Being the same driver, a
stream restarts false chunk starts and checks every member's CRC32 and
ISIZE exactly like :func:`~repro.core.pugz.pugz_decompress`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.pugz import PugzReport, _iter_members
from repro.parallel.executor import Executor

__all__ = ["WindowedReport", "pugz_decompress_windowed", "iter_pugz"]


@dataclass
class WindowedReport:
    """Instrumentation of a windowed run: a view of the
    :class:`~repro.core.pugz.PugzReport` the driver fills."""

    pugz: PugzReport = field(default_factory=lambda: PugzReport(n_chunks_requested=0))

    @property
    def stripes(self) -> int:
        return self.pugz.stripes

    @property
    def chunks(self) -> int:
        return len(self.pugz.chunks)

    @property
    def output_size(self) -> int:
        return self.pugz.output_size

    @property
    def peak_stripe_symbols(self) -> int:
        """Largest number of symbols held in memory at once (across one
        stripe's arrays) — the memory bound being demonstrated."""
        return self.pugz.peak_stripe_symbols


def iter_pugz(
    gz_data: bytes,
    n_chunks: int = 16,
    stripe_chunks: int = 4,
    executor: Executor | str = "serial",
    confirm_blocks: int = 5,
    report: WindowedReport | None = None,
    kernel: str | None = None,
):
    """Generator form: yield decompressed chunks in stream order.

    Multi-member files are decoded member by member, like
    :func:`repro.core.pugz.pugz_decompress`: each member is planned
    into up to ``n_chunks`` chunks and striped on its own, starting
    from an empty context, and its trailer's CRC32 and ISIZE are
    checked once its last piece has been yielded.  Pass a
    :class:`WindowedReport` to collect instrumentation (``chunks`` and
    ``stripes`` count every member).  ``kernel`` selects the decode
    kernel by name (must stay picklable for process executors);
    ``None`` defers to ``$REPRO_KERNEL`` or the auto gate.  An executor
    built here from a name is closed when the generator finishes or is
    closed.
    """
    if stripe_chunks < 1:
        raise ValueError("stripe_chunks must be >= 1")
    if report is None:
        report = WindowedReport()
    report.pugz.n_chunks_requested = n_chunks
    yield from _iter_members(
        gz_data, n_chunks, executor, stripe_chunks, report.pugz,
        verify=True, confirm_blocks=confirm_blocks, kernel=kernel,
    )


def pugz_decompress_windowed(
    gz_data: bytes,
    sink,
    n_chunks: int = 16,
    stripe_chunks: int = 4,
    executor: Executor | str = "serial",
    confirm_blocks: int = 5,
    kernel: str | None = None,
) -> WindowedReport:
    """Decompress a gzip file stripe by stripe, streaming to ``sink``.

    ``sink(data: bytes)`` receives the output in order; peak memory is
    O(stripe), not O(file).  See :func:`iter_pugz` for the generator
    form this wraps.
    """
    report = WindowedReport()
    for piece in iter_pugz(
        gz_data,
        n_chunks=n_chunks,
        stripe_chunks=stripe_chunks,
        executor=executor,
        confirm_blocks=confirm_blocks,
        report=report,
        kernel=kernel,
    ):
        sink(piece)
    return report
