"""Incremental compression object (zlib-object style).

``DeflateCompressor`` mirrors ``zlib.compressobj`` semantics at the
granularity the reproduction needs: buffered ``compress()`` calls, and
``flush(mode)`` with the three DEFLATE-visible modes —

* ``SYNC_FLUSH``  — close the current blocks, append an empty stored
  block, byte-align; the stream stays open (pigz's joint);
* ``FULL_FLUSH``  — ``SYNC_FLUSH`` that also resets the match history,
  making the flush point a *restartable* boundary (what "blocked
  gzip" creation uses: a decompressor can start there with an empty
  window);
* ``FINISH``      — emit the final block.

Its streams decode with :func:`repro.deflate.inflate.inflate`.  It is
the primitive behind :mod:`repro.core.pigz` and the blocked format
discussions in the paper's Section II.
"""

from __future__ import annotations

from repro.deflate import constants as C
from repro.deflate.deflate import compress_tokens
from repro.deflate.lz77 import parse_lz77
from repro.errors import ReproError

__all__ = ["SYNC_FLUSH", "FULL_FLUSH", "FINISH", "DeflateCompressor"]

SYNC_FLUSH = "sync"
FULL_FLUSH = "full"
FINISH = "finish"


class DeflateCompressor:
    """Buffered incremental DEFLATE compressor.

    Input accumulates until a flush; each flush parses the pending
    buffer against the retained 32 KiB history (except after
    ``FULL_FLUSH``, which clears it) and emits byte-aligned output.
    """

    def __init__(self, level: int = 6) -> None:
        if not 1 <= level <= 9:
            raise ValueError("level must be 1-9")
        self.level = level
        self._pending = bytearray()
        self._history = b""
        self._finished = False

    def compress(self, data: bytes) -> bytes:
        """Buffer input; output is produced by :meth:`flush`."""
        if self._finished:
            raise ReproError("compressor already finished", stage="streaming")
        self._pending += data
        return b""

    def flush(self, mode: str = SYNC_FLUSH) -> bytes:
        """Emit all pending input as complete, byte-aligned blocks."""
        if self._finished:
            raise ReproError("compressor already finished", stage="streaming")
        if mode not in (SYNC_FLUSH, FULL_FLUSH, FINISH):
            raise ValueError(f"unknown flush mode {mode!r}")
        chunk = bytes(self._pending)
        self._pending.clear()
        tokens = parse_lz77(chunk, self.level, dictionary=self._history)
        out = compress_tokens(
            chunk,
            tokens,
            bfinal=(mode == FINISH),
            sync_flush=(mode != FINISH),
        )
        if mode == FULL_FLUSH:
            self._history = b""
        else:
            self._history = (self._history + chunk)[-C.WINDOW_SIZE:]
        if mode == FINISH:
            self._finished = True
        return out

    @property
    def finished(self) -> bool:
        return self._finished
