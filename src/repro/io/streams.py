"""File-like streaming interfaces over the parallel decompressor.

The adoption surface for pipelines: open a ``.fastq.gz`` (or any gzip
file) and read bytes, lines, or FASTQ records while decompression runs
stripe by stripe behind the cursor — the paper's "beginning of many
tools" integration point, with O(stripe) memory.
"""

from __future__ import annotations

import io
from collections.abc import Iterator

from repro.data.fastq import FastqRecord
from repro.errors import ReproError
from repro.io.source import ByteSource

__all__ = ["PugzStream", "open_pugz", "open_seekable", "iter_fastq_records", "ByteSource"]


class PugzStream(io.RawIOBase):
    """Read-only binary stream decompressing a gzip buffer on demand."""

    def __init__(
        self,
        gz_data: bytes,
        n_chunks: int = 16,
        stripe_chunks: int = 4,
        executor: str = "serial",
    ) -> None:
        super().__init__()
        # Late import: repro.core reaches back into repro.index (whose
        # modules use ByteSource from this package), so the decompressor
        # is bound at construction time, not import time.
        from repro.core.pugz import PugzReport, iter_pugz

        self.report = PugzReport(n_chunks_requested=n_chunks)
        self._source = iter_pugz(
            gz_data,
            n_chunks=n_chunks,
            stripe_chunks=stripe_chunks,
            executor=executor,
            report=self.report,
        )
        self._buffer = bytearray()
        self._exhausted = False
        self._pos = 0

    # -- io.RawIOBase interface ---------------------------------------

    def readable(self) -> bool:
        return True

    def _fill(self, need: int) -> None:
        while len(self._buffer) < need and not self._exhausted:
            try:
                self._buffer += next(self._source)
            except StopIteration:
                self._exhausted = True

    def read(self, size: int = -1) -> bytes:
        if size is None or size < 0:
            self._fill(1 << 62)
            out = bytes(self._buffer)
            self._buffer.clear()
        else:
            self._fill(size)
            out = bytes(self._buffer[:size])
            del self._buffer[:size]
        self._pos += len(out)
        return out

    def readinto(self, b) -> int:
        chunk = self.read(len(b))
        b[: len(chunk)] = chunk
        return len(chunk)

    def tell(self) -> int:
        return self._pos

    def close(self) -> None:
        # Closing the generator closes an executor it built from a name.
        self._source.close()
        super().close()

    # -- line iteration -------------------------------------------------

    def readline(self, size: int = -1) -> bytes:
        while True:
            nl = self._buffer.find(b"\n")
            if nl >= 0:
                out = bytes(self._buffer[: nl + 1])  # lint: allow-unbudgeted-alloc(converts data already admitted into the read buffer; no new growth)
                del self._buffer[: nl + 1]
                self._pos += len(out)
                return out
            if self._exhausted:
                out = bytes(self._buffer)  # lint: allow-unbudgeted-alloc(converts data already admitted into the read buffer; no new growth)
                self._buffer.clear()
                self._pos += len(out)
                return out
            self._fill(len(self._buffer) + 65536)

    def __iter__(self) -> Iterator[bytes]:
        while True:
            line = self.readline()
            if not line:
                return
            yield line


def open_pugz(path, n_chunks: int = 16, stripe_chunks: int = 4,
              executor: str = "serial") -> PugzStream:
    """Open a gzip file from disk as a parallel-decompressing stream."""
    with open(path, "rb") as fh:
        data = fh.read()
    return PugzStream(data, n_chunks=n_chunks, stripe_chunks=stripe_chunks,
                      executor=executor)


def open_seekable(source, **kwargs):
    """Open a gzip/BGZF source for random access.

    Convenience front door for
    :class:`repro.index.seekable.SeekableGzipReader`: accepts a path,
    bytes, or binary file object plus that class's keyword arguments
    (``index_path``, ``span``, ``backend``, ...) and returns the
    reader.  Unlike :func:`open_pugz`, reads go through ranged file
    I/O — the compressed file is never materialised for warm seeks.
    """
    from repro.index.seekable import SeekableGzipReader

    return SeekableGzipReader(source, **kwargs)


def iter_fastq_records(stream) -> Iterator[FastqRecord]:
    """Iterate FASTQ records from a readline-capable binary stream
    (a :class:`PugzStream`, a :class:`SeekableGzipReader`, any
    buffered binary file)."""
    while True:
        header = stream.readline()
        if not header:
            return
        seq = stream.readline()
        plus = stream.readline()
        qual = stream.readline()
        if not qual:
            raise ReproError("truncated FASTQ record at end of stream", stage="streams")
        header, seq, plus, qual = (
            header.rstrip(b"\n"), seq.rstrip(b"\n"),
            plus.rstrip(b"\n"), qual.rstrip(b"\n"),
        )
        if not header.startswith(b"@") or not plus.startswith(b"+"):
            raise ReproError(f"malformed FASTQ record near {header[:40]!r}", stage="streams")
        if len(seq) != len(qual):
            raise ReproError("FASTQ sequence/quality length mismatch", stage="streams")
        yield FastqRecord(header, seq, plus, qual)
