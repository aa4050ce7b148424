"""Second pass of the two-pass decompressor: context resolution.

Given the per-chunk symbol streams ``D_0..D_{n-1}`` from the first
pass, the paper's second pass (Section VI-C, Figure 3) is:

1. *Sequential window resolution* — cheap, O(n · 32 KiB): the final
   window of chunk ``i`` becomes the initial context of chunk ``i+1``;
   since that window may itself contain markers, it is resolved with
   chunk ``i``'s (already resolved) context first.
2. *Parallel translation* — each chunk independently replaces marker
   ``U_j`` with ``w_i[j]``.

Step 1 is a loop in :mod:`repro.core.pugz`'s driver, which carries the
resolved window across stripes; this module holds the per-chunk pieces
over the numpy symbol arrays.
"""

from __future__ import annotations

import numpy as np

from repro.core import marker
from repro.deflate.constants import WINDOW_SIZE
from repro.errors import ReproError

__all__ = [
    "translate_chunk",
    "translate_chunk_counted",
    "final_window",
]


def final_window(symbols: np.ndarray, initial_window: np.ndarray | None = None) -> np.ndarray:
    """Last 32 KiB of a chunk's symbol stream (its successor's context).

    If the chunk produced fewer than 32 KiB of output, the remainder
    comes from its *own* initial context (which must then be supplied).
    """
    if len(symbols) >= WINDOW_SIZE:
        return np.asarray(symbols[-WINDOW_SIZE:], dtype=np.int32)
    symbols = np.asarray(symbols, dtype=np.int32)
    if initial_window is None:
        raise ReproError(
            f"chunk produced {len(symbols)} < {WINDOW_SIZE} symbols and no "
            "initial window was provided",
            stage="translate",
        )
    initial_window = np.asarray(initial_window, dtype=np.int32)
    return np.concatenate([initial_window, symbols])[-WINDOW_SIZE:]


def translate_chunk(
    symbols: np.ndarray, context: np.ndarray, placeholder: int | None = None
) -> bytes:
    """Pass-2 translation of one chunk: ``U_j -> context[j]``, to bytes.

    With the default ``placeholder=None`` any marker that survives
    resolution (a reference into genuinely unknown data) raises; the
    fault-tolerant decompressor passes ``ord('?')`` to render such
    positions as holes instead.

    Fully vectorized: one LUT gather (:func:`repro.core.marker.resolve`)
    plus one ``astype(uint8)`` pass — no per-symbol branching.  The
    gather reads ``uint8``/``uint16`` pass-1 arrays at their own width;
    a ``uint8`` chunk is already bytes and skips it.
    """
    resolved = marker.resolve(symbols, context)
    return marker.to_bytes(resolved, placeholder=placeholder)


def translate_chunk_counted(
    symbols: np.ndarray, context: np.ndarray, placeholder: int | None = None
) -> tuple[bytes, int]:
    """Like :func:`translate_chunk`, also reporting how many symbols
    stayed unresolved (0 for any well-formed stream)."""
    resolved = marker.resolve(symbols, context)
    unresolved = marker.count_markers(resolved)
    return marker.to_bytes(resolved, placeholder=placeholder), unresolved
