"""Canonical Huffman coding for DEFLATE alphabets.

Three pieces live here:

* :func:`canonical_codes` — the RFC 1951 code-assignment algorithm
  (``bl_count`` / ``next_code``) with over/under-subscription checks;
* :class:`HuffmanDecoder` — a flat lookup table indexed by the next
  ``max_bits`` bits of the stream (LSB-first, i.e. over *bit-reversed*
  canonical codes), decoding any symbol with one table load; this is the
  decoder used by both the byte-domain and the marker-domain inflate;
* :func:`limited_code_lengths` — optimal length-limited Huffman code
  construction via the package-merge algorithm, used by the compressor
  (litlen/dist codes are capped at 15 bits, the code-length code at 7).
"""

from __future__ import annotations

from functools import lru_cache

from repro.deflate.bitio import BitReader, reverse_bits
from repro.deflate.constants import MAX_CODE_BITS
from repro.errors import HuffmanError

#: Shared undecodable-window entry (``length == 0``).
_INVALID = (0, 0)

__all__ = [
    "canonical_codes",
    "kraft_sum",
    "HuffmanDecoder",
    "HuffmanEncoder",
    "cached_decoder",
    "limited_code_lengths",
]


def kraft_sum(lengths) -> int:
    """Kraft sum scaled by ``2**max_bits`` over nonzero lengths.

    A complete prefix code over ``max_bits``-bit codes sums to exactly
    ``2**max_bits``; larger means over-subscribed (not a prefix code).
    """
    nonzero = [l for l in lengths if l > 0]
    if not nonzero:
        return 0, 0
    max_bits = max(nonzero)
    if max_bits > MAX_CODE_BITS:
        raise HuffmanError(
            f"code length {max_bits} exceeds the DEFLATE cap", stage="huffman"
        )
    return sum(1 << (max_bits - l) for l in nonzero), max_bits


def canonical_codes(lengths) -> list[int]:
    """Assign canonical (MSB-first) codes to symbols from code lengths.

    Returns a list aligned with ``lengths``; entries for zero-length
    symbols are 0 and must not be used.  Raises
    :class:`~repro.errors.HuffmanError` if the lengths over-subscribe
    the code space.
    """
    lengths = list(lengths)
    if not lengths:
        return []
    max_bits = max(lengths)
    if max_bits == 0:
        return [0] * len(lengths)
    if max_bits > MAX_CODE_BITS:
        raise HuffmanError(
            f"code length {max_bits} exceeds the DEFLATE cap", stage="huffman"
        )

    bl_count = [0] * (max_bits + 1)
    for l in lengths:
        if l < 0:
            raise HuffmanError(f"negative code length {l}", stage="huffman")
        bl_count[l] += 1
    bl_count[0] = 0

    code = 0
    next_code = [0] * (max_bits + 1)
    for bits in range(1, max_bits + 1):
        code = (code + bl_count[bits - 1]) << 1
        next_code[bits] = code
        if code + bl_count[bits] > (1 << bits):
            raise HuffmanError("over-subscribed code lengths", stage="huffman")

    codes = [0] * len(lengths)
    for sym, l in enumerate(lengths):
        if l:
            codes[sym] = next_code[l]
            next_code[l] += 1
    return codes


class HuffmanDecoder:
    """Flat-table decoder for a canonical Huffman code.

    The table maps every possible ``max_bits``-bit LSB-first window of
    the stream to a ``(code_length, symbol)`` tuple; the shared
    ``(0, 0)`` entry marks an undecodable pattern (possible only in
    incomplete — degenerate distance — tables).  Decoding is: peek
    ``max_bits``, index, unpack, consume ``code_length``.  Tuple
    entries unpack in one interpreter op, which is measurably cheaper
    per symbol than the classic ``(sym << 4) | len`` int packing; all
    windows sharing a code reference the *same* tuple, so the table
    costs one tuple per symbol plus C-speed slice fills to build.

    Every validation runs at construction, so a bad header raises where
    it is parsed.  The table itself is built on first access to
    :attr:`table` (or the first :meth:`decode`): the vectorized kernel
    reads only ``lengths``/``np_luts``, so a block it decodes never pays
    for the pure table.  Two threads racing the first access build
    identical lists and store them in one attribute write.

    Parameters
    ----------
    lengths:
        Code length per symbol (0 = symbol absent).
    allow_incomplete:
        Accept an under-subscribed code.  RFC 1951 permits this only
        for degenerate distance codes (a single distance symbol may be
        encoded in one bit); the strict probing decoder passes ``False``
        everywhere except that case.
    """

    __slots__ = ("_table", "max_bits", "num_symbols", "complete", "lengths", "np_luts")

    def __init__(self, lengths, allow_incomplete: bool = False) -> None:
        lengths = list(lengths)
        #: Lazily-built lookup tables of the vectorized kernel
        #: (:mod:`repro.perf.npkernel`); decoders built via
        #: :func:`cached_decoder` are shared, so the tables amortize
        #: across every stream reusing the same code lengths.
        self.np_luts = None
        self._table = None
        #: Code length per symbol as given (the vectorized kernel
        #: rebuilds its canonical tables from these).
        self.lengths = lengths
        nonzero = [l for l in lengths if l > 0]
        if not nonzero:
            raise HuffmanError("no symbols in code", stage="huffman")
        self.num_symbols = len(nonzero)
        max_bits = max(nonzero)
        if max_bits > MAX_CODE_BITS:
            raise HuffmanError(
                f"code length {max_bits} exceeds the DEFLATE cap",
                stage="huffman",
            )
        self.max_bits = max_bits

        ksum, _ = kraft_sum(lengths)
        full = 1 << max_bits
        if ksum > full:
            raise HuffmanError("over-subscribed code lengths", stage="huffman")
        self.complete = ksum == full
        if not self.complete and not allow_incomplete:
            raise HuffmanError("incomplete code lengths", stage="huffman")
        if min(lengths) < 0:
            raise HuffmanError(f"negative code length {min(lengths)}", stage="huffman")

    @property
    def table(self) -> list:
        """The ``1 << max_bits``-entry window table, built on first use."""
        table = self._table
        if table is None:
            table = self._table = self._build_table()
        return table

    def _build_table(self) -> list:
        max_bits = self.max_bits
        codes = canonical_codes(self.lengths)
        size = 1 << max_bits
        table = [_INVALID] * size
        for sym, l in enumerate(self.lengths):
            if l == 0:
                continue
            # Every nonzero length is <= max_bits by construction; the
            # clamp states that invariant where the interval engine can
            # see it, so the fill below has a proved <= WINDOW_SIZE bound.
            l = min(l, max_bits)
            rev = reverse_bits(codes[sym], l)
            step = 1 << l
            table[rev::step] = [(l, sym)] * (size >> l)
        return table

    def decode(self, reader: BitReader) -> int:
        """Decode one symbol from ``reader``."""
        length, sym = self.table[reader.peek(self.max_bits)]  # lint: allow-cross-decode-taint(peek masks to max_bits bits and table has exactly 1<<max_bits entries)
        if length == 0:
            raise HuffmanError("invalid Huffman code in stream", stage="huffman")
        reader.consume(length)
        return sym


@lru_cache(maxsize=256)
def _cached_decoder(lengths: tuple, allow_incomplete: bool) -> HuffmanDecoder:
    return HuffmanDecoder(lengths, allow_incomplete=allow_incomplete)


def cached_decoder(lengths, allow_incomplete: bool = False) -> HuffmanDecoder:
    """Build (or reuse) a :class:`HuffmanDecoder` for ``lengths``.

    Real corpora repeat block headers constantly — pigz/bgzf emit one
    dynamic header per ~32-128 KiB chunk over near-identical symbol
    statistics, and the two code-length alphabets recur even more —
    so decode tables are memoized on the code-length tuple (a small
    process-wide LRU; entries are immutable after construction and safe
    to share between readers and threads).  Invalid lengths raise
    without populating the cache (``lru_cache`` does not cache
    exceptions), so error behaviour is identical to direct
    construction.

    A dynamic header takes three entries (code-length, litlen and
    distance), so the 256 cover ~85 headers, and random reads over a
    file with more dynamic blocks than that rebuild tables on nearly
    every header parse.  Index readers therefore keep their own parsed
    headers, tables included (:class:`repro.index.zran.IntervalCache`).
    """
    return _cached_decoder(tuple(lengths), allow_incomplete)


class HuffmanEncoder:
    """Encoder companion: pre-reversed codes ready for LSB-first emission."""

    __slots__ = ("lengths", "reversed_codes")

    def __init__(self, lengths) -> None:
        self.lengths = list(lengths)
        codes = canonical_codes(self.lengths)
        self.reversed_codes = [
            reverse_bits(codes[sym], l) if l else 0
            for sym, l in enumerate(self.lengths)
        ]

    def write(self, writer, symbol: int) -> None:
        """Emit ``symbol``'s code into ``writer``."""
        length = self.lengths[symbol]
        if length == 0:
            raise HuffmanError(f"symbol {symbol} has no code", stage="huffman")
        writer.write(self.reversed_codes[symbol], length)

    def cost_bits(self, symbol: int) -> int:
        """Code length of ``symbol`` (0 if absent)."""
        return self.lengths[symbol]


# ---------------------------------------------------------------------------
# Length-limited Huffman (package-merge)
# ---------------------------------------------------------------------------


def _package_merge(weights: list[int], max_bits: int) -> list[int]:
    """Package-merge over pre-sorted positive weights.

    Returns the optimal code length for each weight (aligned with the
    input, which must be sorted ascending), all lengths <= ``max_bits``.
    """
    n = len(weights)
    # Leaf nodes: (weight, unique_id, symbol_rank_or_children)
    leaves = [(w, i, i) for i, w in enumerate(weights)]
    uid = n

    level = list(leaves)
    for _ in range(max_bits - 1):
        packages = []
        for k in range(0, len(level) - 1, 2):
            a, b = level[k], level[k + 1]
            packages.append((a[0] + b[0], uid, (a, b)))
            uid += 1
        # Merge leaves and packages, both already sorted by weight.
        merged = []
        i = j = 0
        while i < n and j < len(packages):
            if leaves[i][0] <= packages[j][0]:
                merged.append(leaves[i])
                i += 1
            else:
                merged.append(packages[j])
                j += 1
        merged.extend(leaves[i:])
        merged.extend(packages[j:])
        level = merged

    lengths = [0] * n
    # The optimal length-limited code corresponds to the cheapest
    # 2n - 2 items of the final level; each leaf occurrence adds one
    # bit to that symbol's code length.
    stack = list(level[: 2 * n - 2])
    while stack:
        node = stack.pop()
        payload = node[2]
        if isinstance(payload, tuple):
            stack.append(payload[0])
            stack.append(payload[1])
        else:
            lengths[payload] += 1
    return lengths


def limited_code_lengths(freqs, max_bits: int) -> list[int]:
    """Optimal prefix-code lengths with every code <= ``max_bits`` bits.

    Zero-frequency symbols get length 0.  Degenerate inputs follow the
    zlib conventions the DEFLATE format requires:

    * no used symbols -> all lengths 0 (the caller substitutes the
      degenerate one-symbol code the format demands);
    * one used symbol -> that symbol gets length 1.
    """
    freqs = list(freqs)
    used = [(f, i) for i, f in enumerate(freqs) if f > 0]
    lengths = [0] * len(freqs)
    if not used:
        return lengths
    if len(used) == 1:
        lengths[used[0][1]] = 1
        return lengths
    if (1 << max_bits) < len(used):
        raise HuffmanError(
            f"cannot code {len(used)} symbols within {max_bits} bits",
            stage="huffman",
        )
    used.sort()
    sorted_weights = [f for f, _ in used]
    sorted_lengths = _package_merge(sorted_weights, max_bits)
    for (_, sym), l in zip(used, sorted_lengths):
        lengths[sym] = l
    return lengths


def huffman_cost_bits(freqs, lengths) -> int:
    """Total encoded size in bits of ``freqs`` under ``lengths``."""
    return sum(f * l for f, l in zip(freqs, lengths) if f)
