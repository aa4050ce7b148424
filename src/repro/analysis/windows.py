"""Undetermined-character window counting (Figure 2, Section IV-C).

The paper decompresses from block 2 with a fully undetermined context
and counts undetermined characters in non-overlapping windows of size
``o_a`` (the stream's mean match offset).  This module does the same
over the marker-domain decoder, in a *streaming* fashion so the
FASTQ-like experiment (tens of MB) never materialises its output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.marker import MARKER_BASE
from repro.core.marker_inflate import marker_inflate

__all__ = ["UndeterminedWindowCounter", "undetermined_window_series", "WindowSeries"]


class UndeterminedWindowCounter:
    """Streaming sink: tally undetermined symbols per fixed-size window.

    ``position_filter``, if given, restricts the count to a subset of
    output positions: it receives an ``int64`` array of *global* output
    positions and returns a boolean mask.  The fraction denominator is
    then the number of eligible positions per window.  The Figure 2
    (bottom) reproduction uses this to count only the DNA phase of the
    FASTQ-like string (the 'x' spacers form unbroken back-reference
    lineages that never resolve, so the paper's decaying curves track
    the DNA content).
    """

    def __init__(self, window_size: int, position_filter=None) -> None:
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        self.window_size = window_size
        self.position_filter = position_filter
        self._counts: dict[int, int] = {}
        self._eligible: dict[int, int] = {}
        self._total = 0

    def __call__(self, symbols: np.ndarray, start_position: int) -> None:
        """Sink interface for :func:`marker_inflate` streaming mode
        (``symbols`` an ``int32`` array, or any sequence of codes)."""
        arr = np.asarray(symbols, dtype=np.int32)
        self._total = max(self._total, start_position + len(arr))
        positions = np.arange(start_position, start_position + len(arr), dtype=np.int64)
        if self.position_filter is not None:
            eligible = self.position_filter(positions)
            for w, c in zip(*np.unique(positions[eligible] // self.window_size,
                                       return_counts=True)):
                self._eligible[int(w)] = self._eligible.get(int(w), 0) + int(c)
            undet_mask = (arr >= MARKER_BASE) & eligible
        else:
            undet_mask = arr >= MARKER_BASE
        undet = positions[undet_mask]
        if len(undet):
            for w, c in zip(*np.unique(undet // self.window_size, return_counts=True)):
                self._counts[int(w)] = self._counts.get(int(w), 0) + int(c)

    def fractions(self) -> np.ndarray:
        """Undetermined fraction per window (window 0 first)."""
        if self._total == 0:
            return np.zeros(0)
        n_windows = -(-self._total // self.window_size)
        out = np.zeros(n_windows, dtype=np.float64)
        for w, c in self._counts.items():
            out[w] = c
        if self.position_filter is not None:
            sizes = np.zeros(n_windows, dtype=np.float64)
            for w, c in self._eligible.items():
                sizes[w] = c
            sizes[sizes == 0] = np.inf  # windows with no eligible chars
        else:
            sizes = np.full(n_windows, self.window_size, dtype=np.float64)
            sizes[-1] = self._total - self.window_size * (n_windows - 1)
        return out / sizes

    @property
    def total_symbols(self) -> int:
        return self._total


@dataclass
class WindowSeries:
    """Result of a Figure 2-style run."""

    #: Undetermined fraction per non-overlapping window.
    fractions: np.ndarray
    #: Window size used (the stream's ``o_a`` in the paper).
    window_size: int
    #: Total symbols decompressed.
    total: int
    #: First window index with zero undetermined characters and none
    #: after it (the "vanishing point"); ``None`` if never vanishes.
    vanish_index: int | None


def undetermined_window_series(
    payload,
    start_bit: int,
    window_size: int,
    max_output: int | None = None,
    position_filter=None,
) -> WindowSeries:
    """Decompress with an undetermined context, counting per window.

    ``start_bit`` should be the start of block 2 (or any block) of the
    stream — obtain it from the block list of a byte-domain decode or
    from :func:`repro.core.sync.find_block_start`.
    """
    counter = UndeterminedWindowCounter(window_size, position_filter=position_filter)
    marker_inflate(
        payload,
        start_bit=start_bit,
        window=None,
        sink=counter,
        max_output=max_output,
    )
    fr = counter.fractions()
    vanish = None
    nz = np.flatnonzero(fr > 0)
    if len(fr) and (len(nz) == 0 or nz[-1] < len(fr) - 1):
        vanish = 0 if len(nz) == 0 else int(nz[-1]) + 1
    return WindowSeries(
        fractions=fr,
        window_size=window_size,
        total=counter.total_symbols,
        vanish_index=vanish,
    )
