"""Streaming sequence extraction (Appendix X-B at unbounded scale).

The batch extractor (:mod:`repro.core.sequences`) needs the whole
symbol stream in memory.  This sink-based variant plugs into
:func:`repro.core.marker_inflate.marker_inflate`'s streaming mode and
handles the paper's "special case ... to handle sequences that span two
blocks" — here, spans across *flush chunks* — by carrying the active
partial match between chunks.  Memory is O(longest run of D/U
symbols), one byte per symbol, so Table I-style scans can run over
arbitrarily large files.  It finds exactly the batch extractor's
sequences: the end of the decoded span is not a terminator, so a read
cut off by it is not a read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.sequences import ExtractedSequence, _SEQ_RE, classify_symbols

__all__ = ["StreamingSequenceExtractor"]


@dataclass
class StreamingSequenceExtractor:
    """Sink object: feed symbol chunks, collect extracted sequences.

    Usage::

        extractor = StreamingSequenceExtractor(min_length=30)
        marker_inflate(gz, start_bit=..., sink=extractor)
        extractor.finish()
        extractor.sequences  # positions are global stream offsets
    """

    min_length: int = 20
    max_length: int | None = None
    sequences: list[ExtractedSequence] = field(default_factory=list)
    _carry: bytes = b""          # class-string tail that may continue
    _carry_start: int = 0        # global position of the carry's first char
    _total: int = 0
    _finished: bool = False

    def __call__(self, symbols: np.ndarray, start_position: int) -> None:
        if self._finished:
            raise RuntimeError("extractor already finished")
        classes = classify_symbols(symbols)
        if self._carry:
            if start_position != self._carry_start + len(self._carry):
                raise ValueError("chunks must arrive contiguously")
            buf = self._carry + classes
            buf_start = self._carry_start
        else:
            buf = classes
            buf_start = start_position
        self._total = start_position + len(classes)

        # A match is *final* iff the D/U run at its trailing lookahead
        # terminates inside the buffer — equivalently, iff it ends
        # before the buffer's trailing maximal D/U run (which might
        # still extend into the next chunk).  No match crosses the
        # character before that run, so the final matches are those of
        # the buffer up to the run, and the run is scanned once, when
        # a later chunk ends it.  The run is carried whole, with that
        # character (its potential leading terminator): a match inside
        # it can start after a U and end before one, so no prefix of it
        # can be dropped without losing reads.
        tail_start = len(buf.rstrip(b"DU"))
        self._extract(buf[:tail_start], buf_start)
        carry_from = max(0, tail_start - 1)
        self._carry = buf[carry_from:]
        self._carry_start = buf_start + carry_from

    def _extract(self, classes: bytes, global_start: int) -> None:
        for m in _SEQ_RE.finditer(classes):
            start, end = m.span()
            if end - start < self.min_length:
                continue
            if self.max_length is not None and end - start > self.max_length:
                continue
            self.sequences.append(
                ExtractedSequence(
                    start=global_start + start,
                    end=global_start + end,
                    undetermined=m.group().count(b"U"),
                )
            )

    def finish(self) -> None:
        """Extract what the carried tail terminates.  As in the batch
        grammar, the end of the stream is no terminator: a D/U run it
        cuts off (end of file or ``max_output``) is not a read."""
        if self._finished:
            return
        if self._carry:
            self._extract(self._carry, self._carry_start)
        self._carry = b""
        self._finished = True

    @property
    def total_symbols(self) -> int:
        return self._total
