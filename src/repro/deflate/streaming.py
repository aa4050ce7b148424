"""Incremental compression/decompression objects (zlib-object style).

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

``InflateDecompressor`` is the streaming counterpart: feed compressed
bytes, read decompressed bytes out, with bounded internal state.

These are the primitives behind :mod:`repro.core.pigz` and the blocked
format discussions in the paper's Section II.
"""

from __future__ import annotations

from repro.deflate import constants as C
from repro.deflate.deflate import compress_tokens
from repro.deflate.inflate import inflate
from repro.deflate.lz77 import parse_lz77
from repro.errors import DeflateError, ReproError

__all__ = ["SYNC_FLUSH", "FULL_FLUSH", "FINISH", "DeflateCompressor", "InflateDecompressor"]

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


class InflateDecompressor:
    """Streaming DEFLATE decompressor with bounded retained state.

    Feed arbitrary slices of the compressed stream; complete blocks
    decode eagerly, a trailing partial block waits for more input.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._consumed_bits = 0
        #: Bits trimmed off the front of ``_buffer`` so far.
        self._trimmed_bits = 0
        self._window = b""
        self._finished = False
        self._out = bytearray()

    def decompress(self, data: bytes) -> bytes:
        """Feed compressed bytes; return whatever decodes completely."""
        if self._finished:
            if data:
                raise ReproError("data after the final block", stage="streaming")
            out = bytes(self._out)
            self._out.clear()
            return out
        self._buffer += data
        # Decode block by block; stop at the first incomplete block.
        while not self._finished:
            try:
                result = self._decode_pending()
            except DeflateError:
                # Partial block: wait for more input.  (A genuinely
                # corrupt stream will fail again at finish().)  Only
                # stream-format errors mean "incomplete" — anything
                # else (MemoryError, a decoder bug) must propagate
                # instead of masquerading as a short read.
                break
            if not result.blocks:
                break
            block = result.blocks[0]
            # A block is only trustworthy if it ended strictly before
            # the buffer end (otherwise it may have consumed zero-padded
            # peek bits that the next feed would change) — except that
            # a final block is always complete.
            if result.end_bit > 8 * len(self._buffer) - 8 and not result.final_seen:
                break
            self._out += result.data
            self._window = (self._window + result.data)[-C.WINDOW_SIZE:]
            self._consumed_bits = result.end_bit
            if result.final_seen:
                self._finished = True
            # Trim consumed whole bytes to keep the buffer bounded.
            whole = self._consumed_bits // 8
            if whole > 65536:
                del self._buffer[:whole]
                self._consumed_bits -= 8 * whole
                self._trimmed_bits += 8 * whole
        out = bytes(self._out)
        self._out.clear()
        return out

    def _decode_pending(self):
        return inflate(
            self._buffer,
            start_bit=self._consumed_bits,
            window=self._window,
            max_blocks=1,
        )

    def finish(self) -> bytes:
        """Assert stream completion and drain remaining output.

        A stream that ends before its final block raises what decoding
        the pending block raises — the :class:`DeflateError` that
        :func:`inflate` meets on the whole stream, its ``bit_offset``
        counted from the first byte fed.
        """
        out = self.decompress(b"")
        if not self._finished:
            try:
                self._decode_pending()
            except DeflateError as exc:
                if exc.bit_offset is not None:
                    exc.bit_offset += self._trimmed_bits
                raise
            raise ReproError(
                "stream ended before its final block",
                bit_offset=self._trimmed_bits + self._consumed_bits,
                stage="streaming",
            )
        return out

    @property
    def finished(self) -> bool:
        return self._finished
