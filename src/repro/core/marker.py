"""The marker symbol alphabet for undetermined-context decompression.

Section VI-C of the paper: instead of a context of identical '?'
characters, pugz seeds decompression with a window of *unique* symbols
``wˆ = [U_0, ..., U_32767]``, so that every back-reference into the
unknown context can later be resolved once the true context is known.

We represent the extended alphabet as integer codes:

* ``0..255`` — concrete bytes;
* ``MARKER_BASE + j`` (``j`` in ``[0, 32768)``) — the marker ``U_j``,
  i.e. "whatever byte sits at position ``j`` of the initial window".

The decoder replays in ``int32``; :func:`narrow` stores a finished
chunk at its natural width (``uint8`` without markers, else ``uint16``
— the largest code, ``MARKER_BASE + 32767``, fits 16 bits), and every
function here accepts any of the three.

Position ``j = 0`` is the *oldest* byte of the initial context (32768
bytes before the decompression start point) and ``j = 32767`` the byte
immediately preceding it.
"""

from __future__ import annotations

import numpy as np

from repro.deflate.constants import WINDOW_SIZE
from repro.errors import ReproError

__all__ = [
    "MARKER_BASE",
    "NUM_SYMBOLS",
    "undetermined_window",
    "is_marker",
    "marker_positions",
    "count_markers",
    "narrow",
    "resolve",
    "to_bytes",
    "from_bytes",
]

#: First marker code; codes below are plain bytes.
MARKER_BASE = 256

#: Total alphabet size (bytes + one marker per window position).
NUM_SYMBOLS = MARKER_BASE + WINDOW_SIZE


def undetermined_window() -> list[int]:
    """The fully-undetermined initial context ``[U_0, ..., U_32767]``.

    Returned as a Python list because the decoder's window/output buffer
    is list-based (see :mod:`repro.core.marker_inflate`).
    """
    return list(range(MARKER_BASE, MARKER_BASE + WINDOW_SIZE))


def _as_symbols(symbols) -> np.ndarray:
    """An array keeps its width; anything else becomes ``int32`` codes."""
    if isinstance(symbols, np.ndarray):
        return symbols
    return np.asarray(symbols, dtype=np.int32)


def is_marker(symbols: np.ndarray) -> np.ndarray:
    """Boolean mask: which entries of a symbol array are markers."""
    return np.asarray(symbols) >= MARKER_BASE


def marker_positions(symbols: np.ndarray) -> np.ndarray:
    """Initial-window positions referenced by the marker entries.

    Non-marker entries map to -1.
    """
    symbols = np.asarray(symbols)
    out = np.full(symbols.shape, -1, dtype=np.int32)
    mask = symbols >= MARKER_BASE
    out[mask] = symbols[mask] - MARKER_BASE
    return out


def count_markers(symbols: np.ndarray) -> int:
    """Number of undetermined characters in a symbol array."""
    symbols = _as_symbols(symbols)
    if symbols.dtype == np.uint8:
        return 0
    return int((symbols >= MARKER_BASE).sum())


def narrow(symbols: np.ndarray) -> np.ndarray:
    """``symbols`` at its natural width: ``uint8`` when it holds no
    marker, else ``uint16``.  Pass 1 sends its output across the
    process boundary this way — 1 or 2 bytes per symbol, not 4."""
    symbols = _as_symbols(symbols)
    if symbols.size and int(symbols.max()) >= MARKER_BASE:
        return symbols.astype(np.uint16)
    return symbols.astype(np.uint8)


#: Identity prefix of the resolution LUT: byte codes map to themselves.
#: Relies on the alphabet layout ``MARKER_BASE == 256`` putting marker
#: ``U_j`` at LUT index ``256 + j``.
_BYTE_IDENTITY = np.arange(MARKER_BASE, dtype=np.int32)


def resolve(symbols: np.ndarray, window) -> np.ndarray:
    """Replace every marker ``U_j`` with ``window[j]``.

    ``window`` is the resolved context (bytes or symbol codes) of length
    32768; if it still contains markers they propagate into the output
    (this is exactly the sequential resolution step of the second pass:
    resolving ``w_{i+1}`` with a *partially* resolved ``w_i`` chains the
    references one link back).

    Implemented as a single vectorized gather: the LUT is the identity
    over byte codes concatenated with the window, so ``lut[symbols]``
    translates bytes and markers in one :func:`numpy.take` pass with no
    boolean masking or per-symbol branching (pass 2 of the two-pass
    decompressor spends essentially all its time here).  ``symbols``
    index the LUT at their own width, unsigned ones included; a
    ``uint8`` array has no marker and is returned as is.  The result
    is ``uint8`` whenever ``window`` is marker-free.
    """
    symbols = _as_symbols(symbols)
    window = _as_symbols(window)
    if window.shape != (WINDOW_SIZE,):
        raise ReproError(
            f"resolution window must have {WINDOW_SIZE} entries, got {window.shape}",
            stage="marker",
        )
    if symbols.dtype == np.uint8:
        return symbols
    lut = np.concatenate([_BYTE_IDENTITY, window])
    if int(window.max()) < MARKER_BASE:
        lut = lut.astype(np.uint8)
    return np.take(lut, symbols)


def to_bytes(symbols: np.ndarray, placeholder: int | None = None) -> bytes:
    """Convert a symbol array to bytes.

    Remaining markers are an error unless ``placeholder`` (e.g.
    ``ord('?')``) is given, in which case they render as that byte —
    the paper's '?' display convention (Figure 1).
    """
    symbols = _as_symbols(symbols)
    if symbols.dtype == np.uint8:
        return symbols.tobytes()
    # max() is one branch-free pass; the boolean mask (two more passes)
    # is only materialised on the rare marker-bearing path.
    if symbols.size and int(symbols.max()) >= MARKER_BASE:
        mask = symbols >= MARKER_BASE
        if placeholder is None:
            raise ReproError(
                f"{int(mask.sum())} unresolved markers in symbol stream",
                stage="marker",
            )
        symbols = np.where(mask, np.int32(placeholder), symbols)
    return symbols.astype(np.uint8).tobytes()


def from_bytes(data: bytes) -> np.ndarray:
    """Lift concrete bytes into the symbol domain."""
    return np.frombuffer(data, dtype=np.uint8).astype(np.int32)
