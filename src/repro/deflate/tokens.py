"""Token-stream representation of a DEFLATE block's LZ77 content.

A *token* is either a literal byte or an (offset, length) match — the
``mixed LZ77-style parsing`` of Definition 2 in the paper.  The inflate
decoder can capture the token stream it decodes, and the analysis code
(Section IV-C / V-D reproductions) derives the paper's statistics from
it: the average match offset ``o_a``, the average match length ``l_a``,
and the literal rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.deflate import constants as C
from repro.deflate.constants import WINDOW_SIZE

__all__ = [
    "Token",
    "TokenStream",
    "TokenStats",
    "piece_reach",
    "piece_starts",
    "token_bits",
    "token_ends",
    "window_reach",
]


@dataclass(frozen=True)
class Token:
    """One LZ77 token.

    ``offset == 0`` encodes a literal whose byte value is ``value``;
    otherwise the token is a match of length ``value`` at distance
    ``offset`` behind the cursor.
    """

    offset: int
    value: int

    @property
    def is_literal(self) -> bool:
        return self.offset == 0

    @property
    def length(self) -> int:
        """Number of output bytes this token produces."""
        return 1 if self.offset == 0 else self.value

    @classmethod
    def literal(cls, byte: int) -> "Token":
        return cls(0, byte)

    @classmethod
    def match(cls, offset: int, length: int) -> "Token":
        return cls(offset, length)


@dataclass
class TokenStats:
    """Aggregate statistics of a token stream (Section IV-C quantities)."""

    num_literals: int
    num_matches: int
    total_match_length: int
    total_match_offset: int
    output_length: int

    @property
    def mean_offset(self) -> float:
        """The paper's ``o_a``: average match offset."""
        return self.total_match_offset / self.num_matches if self.num_matches else 0.0

    @property
    def mean_length(self) -> float:
        """The paper's ``l_a``: average match length."""
        return self.total_match_length / self.num_matches if self.num_matches else 0.0

    @property
    def literal_fraction(self) -> float:
        """Fraction of *output bytes* that came from literal tokens."""
        return self.num_literals / self.output_length if self.output_length else 0.0


class TokenStream:
    """Growable sequence of tokens stored as columnar (numpy) chunks.

    Two append paths feed the same storage: the pure decoder appends
    scalar tokens with :meth:`add_literal` / :meth:`add_match` (buffered
    in plain lists), and the vectorized kernel hands over whole blocks
    at once with :meth:`add_columnar` — int32 column arrays are adopted
    as chunks without a per-token Python loop.  Readers always go
    through :meth:`offsets` / :meth:`values`, which concatenate the
    chunks once and memoize the result until the next append;
    :class:`Token` objects are only materialized lazily, one at a time,
    by indexing or iteration.
    """

    __slots__ = (
        "_chunks",
        "_pend_offsets",
        "_pend_values",
        "_len",
        "_cache",
        "_list_cache",
    )

    def __init__(self) -> None:
        self._chunks: list[tuple[np.ndarray, np.ndarray]] = []
        self._pend_offsets: list[int] = []
        self._pend_values: list[int] = []
        self._len = 0
        self._cache: tuple[np.ndarray, np.ndarray] | None = None
        self._list_cache: tuple[list[int], list[int]] | None = None

    def __len__(self) -> int:
        return self._len

    def add_literal(self, byte: int) -> None:
        self._pend_offsets.append(0)
        self._pend_values.append(byte)
        self._len += 1
        self._cache = None
        self._list_cache = None

    def add_match(self, offset: int, length: int) -> None:
        self._pend_offsets.append(offset)
        self._pend_values.append(length)
        self._len += 1
        self._cache = None
        self._list_cache = None

    def add_columnar(self, offsets: np.ndarray, values: np.ndarray) -> None:
        """Adopt row-aligned offset/value arrays as one chunk.

        ``offsets[i] == 0`` marks row ``i`` a literal with byte value
        ``values[i]``, exactly as in :class:`Token`.  The arrays are
        adopted, not copied: the caller must not mutate them afterwards.
        """
        if len(offsets) != len(values):
            raise ValueError("offsets and values must be row-aligned")
        if not len(offsets):
            return
        self._flush_pending()
        self._chunks.append(
            (
                np.ascontiguousarray(offsets, dtype=np.int32),
                np.ascontiguousarray(values, dtype=np.int32),
            )
        )
        self._len += len(offsets)
        self._cache = None
        self._list_cache = None

    def _flush_pending(self) -> None:
        if self._pend_offsets:
            self._chunks.append(
                (
                    np.asarray(self._pend_offsets, dtype=np.int32),
                    np.asarray(self._pend_values, dtype=np.int32),
                )
            )
            self._pend_offsets = []
            self._pend_values = []

    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        if self._cache is None:
            self._flush_pending()
            if not self._chunks:
                empty = np.empty(0, dtype=np.int32)
                self._cache = (empty, empty)
            elif len(self._chunks) == 1:
                self._cache = self._chunks[0]
            else:
                self._cache = (
                    np.concatenate([c[0] for c in self._chunks]),
                    np.concatenate([c[1] for c in self._chunks]),
                )
                self._chunks = [self._cache]
        return self._cache

    def __getitem__(self, i: int) -> Token:
        offsets, values = self._columns()
        return Token(int(offsets[i]), int(values[i]))

    def __iter__(self):
        offsets, values = self._columns()
        for off, val in zip(offsets.tolist(), values.tolist()):
            yield Token(off, val)

    def lists(self) -> tuple[list[int], list[int]]:
        """Offset/value columns as plain Python lists (memoized).

        The compressor's per-symbol frequency loops index tokens with
        Python ints millions of times; list indexing beats numpy scalar
        indexing there, so this keeps a parallel list view cached.
        """
        if self._list_cache is None:
            offsets, values = self._columns()
            self._list_cache = (offsets.tolist(), values.tolist())
        return self._list_cache

    def offsets(self) -> np.ndarray:
        """Match offsets (0 rows are literals)."""
        return self._columns()[0]

    def values(self) -> np.ndarray:
        """Literal bytes / match lengths, row-aligned with :meth:`offsets`."""
        return self._columns()[1]

    def stats(self) -> TokenStats:
        """Compute aggregate statistics in one vectorised pass."""
        offsets = self.offsets()
        values = self.values()
        is_match = offsets > 0
        num_matches = int(is_match.sum())
        num_literals = len(offsets) - num_matches
        total_len = int(values[is_match].sum()) if num_matches else 0
        total_off = int(offsets[is_match].sum()) if num_matches else 0
        return TokenStats(
            num_literals=num_literals,
            num_matches=num_matches,
            total_match_length=total_len,
            total_match_offset=total_off,
            output_length=num_literals + total_len,
        )


def token_ends(offsets: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Where each token's output ends in its block: the int32 running
    sum of the token lengths (1 per literal).  One array serves a
    block's replay (:func:`repro.perf.npkernel.replay_bytes`), its
    reach and its piece cuts."""
    return np.cumsum(np.where(offsets > 0, values, 1), dtype=np.int32)


def window_reach(
    offsets: np.ndarray, values: np.ndarray, ends: np.ndarray | None = None
) -> np.ndarray:
    """The 32 KiB window positions one block's tokens read directly.

    ``offsets`` / ``values`` are the block's token columns (as in
    :class:`TokenStream`), ``ends`` their :func:`token_ends` if the
    caller has them.  A match at block output position ``p``
    with distance ``d`` and length ``L`` reads ``[p - d, p - d +
    min(d, L))`` — the rest of an overlapping copy is its own output —
    and only the part before the block's first byte is the window's.
    Returns the set as a packed bitmap (``np.packbits`` order, 4 KiB):
    unpacked bit ``j`` is the byte ``WINDOW_SIZE - j`` before the
    block, so ``j = 0`` is the oldest, as for the marker ``U_j`` of
    :mod:`repro.core.marker`.  Bytes whose bit is clear are never read,
    so a decode of the block is exact with them set to anything.  Any
    run of a block's tokens is a "block" here: its reach counts the
    block's own output before the run as window.
    """
    offs = np.asarray(offsets, dtype=np.int32)
    vals = np.asarray(values, dtype=np.int32)
    if ends is None:
        ends = token_ends(offs, vals)
    return piece_reach(offs, vals, ends, [0])[0]


def piece_starts(offsets: np.ndarray, ends: np.ndarray, span: int) -> list[int]:
    """Token indices where one block's pieces start, for checkpoints at
    most ``span`` output bytes apart inside it.

    ``offsets`` is the block's token distance column and ``ends`` its
    :func:`token_ends`.  A piece starts only right after a match, so a
    decode that stops after the first match reaching the bytes it wants
    never runs past the next piece's start.  The first piece starts at
    token 0; each next one at the last token after a match that starts
    at most ``span`` bytes past the previous piece's start (the first
    one after that, if a run of literals leaves none), until the rest
    of the block fits in ``span``.  So a piece is longer than ``span``
    only where a literal run of nearly ``span`` bytes crosses it.
    """
    firsts = [0]
    # Candidate starts: each token after a match, and where it begins.
    after = np.flatnonzero(np.asarray(offsets[:-1]) > 0) + 1
    at = ends[after - 1]
    total = int(ends[-1]) if len(ends) else 0
    begin = 0
    while total - begin > span:
        i = int(np.searchsorted(at, begin + span, "right")) - 1
        if i < 0 or at[i] <= begin:
            i = int(np.searchsorted(at, begin, "right"))
            if i == len(after):
                break
        firsts.append(int(after[i]))
        begin = int(at[i])
    return firsts


def piece_reach(
    offsets: np.ndarray, values: np.ndarray, ends: np.ndarray, firsts: list[int]
) -> np.ndarray:
    """One packed :func:`window_reach` row per piece: the window
    positions before each piece's first byte that its tokens read.

    ``firsts`` are the pieces' first token indices (as from
    :func:`piece_starts`) and ``ends`` the block's :func:`token_ends`.
    All pieces are found in one pass over the block's matches."""
    offs = np.asarray(offsets)
    m_idx = np.flatnonzero(offs > 0)
    m_piece = np.searchsorted(firsts, m_idx, "right") - 1
    # Each piece's first output byte, relative to the block's.
    base = np.concatenate(([0], ends))[firsts]
    m_len = np.asarray(values)[m_idx]
    m_off = offs[m_idx]
    m_start = ends[m_idx] - m_len - base[m_piece]
    back = m_off > m_start  # matches whose source begins before their piece
    src = (m_start - m_off)[back]
    count = np.minimum(src + np.minimum(m_off, m_len)[back], 0) - src
    # Every position of every range [src, src + count), as one index
    # array into the pieces' bitmaps laid end to end.
    first = np.cumsum(count) - count
    lead = (m_piece[back] + 1) * WINDOW_SIZE + src - first
    bits = np.zeros(len(firsts) * WINDOW_SIZE, dtype=bool)
    bits[np.arange(int(count.sum())) + np.repeat(lead, count)] = True
    return np.packbits(bits).reshape(len(firsts), -1)


#: Extra bits of each literal/length symbol (0 for literals and EOB).
_LL_EXTRA = np.zeros(288, dtype=np.int64)
_LL_EXTRA[257:286] = C.LENGTH_EXTRA_BITS
_DIST_EXTRA = np.asarray(C.DIST_EXTRA_BITS, dtype=np.int64)


def token_bits(
    offsets: np.ndarray, values: np.ndarray, litlen_lengths, dist_lengths
) -> np.ndarray:
    """Bits each token of a Huffman block takes in the stream.

    A literal is its code; a match its length code and extra bits,
    then its distance code and extra bits.  ``litlen_lengths`` /
    ``dist_lengths`` are the block's code lengths.  Token columns do
    not say which code wrote a length-258 match (285, or 284 with extra
    bits 31); this counts 285, the one encoders use, so a caller checks
    the sum against the block's real size.
    """
    offs = np.asarray(offsets, dtype=np.int32)
    vals = np.asarray(values, dtype=np.int32)
    ll = np.zeros(288, dtype=np.int64)
    ll[: len(litlen_lengths)] = litlen_lengths
    dl = np.zeros(32, dtype=np.int64)
    dl[: len(dist_lengths)] = dist_lengths
    is_m = offs > 0
    code = np.where(is_m, C.LENGTH_TO_CODE[vals], vals)
    dcode = C.DIST_TO_CODE[offs]
    return ll[code] + _LL_EXTRA[code] + np.where(is_m, dl[dcode] + _DIST_EXTRA[dcode], 0)
