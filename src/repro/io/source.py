"""Ranged byte access over heterogeneous compressed sources.

Every random-access layer in the repo (zran checkpoints, the BGZF
block table, the seekable facade) ultimately needs the same primitive:
*read ``size`` compressed bytes at ``offset``* — without forcing the
whole file into memory first.  :class:`ByteSource` is that primitive,
normalising the three ways callers hold a compressed stream:

* ``bytes`` / ``bytearray`` / ``memoryview`` — zero-copy slicing
  (keeps every historical ``gz_data: bytes`` signature working);
* a filesystem path (``str`` / ``os.PathLike``) — opened lazily, reads
  are ``seek`` + ``read`` of exactly the requested range;
* a seekable binary file object — used in place, never closed unless
  ownership was transferred.

Reads past EOF return short (possibly empty) results, like POSIX
``pread`` — range validation is the caller's job, because only the
caller knows the uncompressed coordinate system.  After :meth:`close`,
every read raises :class:`~repro.errors.RandomAccessError`, whatever
the source.
"""

from __future__ import annotations

import io
import os

from repro.errors import RandomAccessError

__all__ = ["ByteSource"]


class ByteSource:
    """Uniform ``pread``-style access to bytes, a path, or a file object.

    Parameters
    ----------
    source:
        ``bytes``-like data, a path, or a seekable binary file object.
    owns_file:
        When ``source`` is a file object, whether :meth:`close` should
        close it.  Paths are always owned; bytes never need closing.
    """

    def __init__(self, source, owns_file: bool = False) -> None:
        self._data: bytes | None = None
        self._fh = None
        self._path: str | None = None
        self._owns = owns_file
        self._size: int | None = None
        self._closed = False
        if isinstance(source, (bytes, bytearray, memoryview)):
            self._data = bytes(source)
            self._size = len(self._data)
        elif isinstance(source, (str, os.PathLike)):
            self._path = os.fspath(source)
            self._owns = True
        elif hasattr(source, "read") and hasattr(source, "seek"):
            self._fh = source
        else:
            raise TypeError(
                "ByteSource needs bytes, a path, or a seekable binary "
                f"file object, got {type(source).__name__}"
            )

    @classmethod
    def wrap(cls, source) -> "ByteSource":
        """Coerce ``source`` to a :class:`ByteSource` (idempotent)."""
        if isinstance(source, ByteSource):
            return source
        return cls(source)

    # -- internals ----------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise RandomAccessError("byte source is closed", stage="io")

    def _file(self):
        self._check_open()
        if self._fh is None:
            self._fh = open(self._path, "rb")
        return self._fh

    # -- ranged access ------------------------------------------------

    def pread(self, offset: int, size: int) -> bytes:
        """Read up to ``size`` bytes at absolute ``offset``.

        Returns short (or empty) data at EOF; never raises for
        past-the-end ranges.
        """
        if offset < 0:
            raise RandomAccessError(
                f"negative read offset {offset}", stage="io"
            )
        if size < 0:
            raise RandomAccessError(
                f"negative read size {size}", stage="io"
            )
        self._check_open()
        if self._data is not None:
            return self._data[offset : offset + size]
        fh = self._file()
        fh.seek(offset)
        return fh.read(size)

    def size(self) -> int:
        """Total byte length of the underlying source (cached)."""
        if self._size is None:
            fh = self._file()
            pos = fh.seek(0, io.SEEK_END)
            self._size = pos
        return self._size

    def read_all(self) -> bytes:
        """The entire source as bytes (for whole-stream passes like an
        index build, which must decode everything anyway)."""
        self._check_open()
        if self._data is not None:
            return self._data
        return self.pread(0, self.size())

    @property
    def is_in_memory(self) -> bool:
        """True when the source is a bytes buffer (no file I/O)."""
        return self._data is not None

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        """Close the source (idempotent): later reads raise instead of
        reopening a path.  The owned file handle, if any, is closed; a
        borrowed file object (``owns_file=False``) is left open and
        usable — closing it is its owner's job."""
        self._closed = True
        if self._fh is not None and self._owns:
            self._fh.close()
        self._fh = None

    def __enter__(self) -> "ByteSource":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
