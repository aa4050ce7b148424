"""Golden edge semantics of the block drivers, under both kernels.

``inflate`` (byte domain) and ``marker_inflate`` (marker domain) each
run one block loop whose per-block decode is either the pure symbol
loop or the numpy kernel.  A pure-vs-numpy comparison cannot pin what
that shared loop does at its edges, so every case here is checked
against literals recorded from the pure drivers:

* ``max_output`` at, and one either side of, every block boundary and
  in the middle of every block (the byte domain stops at a block
  boundary, the marker domain at the exact token);
* ``max_blocks`` from 0 to past the last block;
* ``stop_bit`` at block starts and between them (marker domain);
* sink flushing (marker domain);
* resource budgets crossed by a match, by literal growth and by the
  marker buffer;
* strict (block-start probe) decodes, window seeding and token capture.

An outcome is either the result's lengths, digests, ``end_bit``,
``truncated``/``final_seen`` flags and block count, or the error class,
``bit_offset`` and ``limit``.  Full block tables are pinned for the
two test streams; a case's blocks must match its digest.

The streams come from the repository's own encoder with hand-placed
block cuts (dynamic, fixed, stored, an empty stored sync-flush block
and a final block of overlapping matches), so they do not depend on
the zlib build; :data:`STREAM_DIGESTS` fails first if the encoder
changes.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from repro.core.marker_inflate import marker_inflate
from repro.deflate.bitio import BitWriter
from repro.deflate.deflate import _emit_stored, _flush_block
from repro.deflate.inflate import inflate
from repro.deflate.lz77 import parse_lz77
from repro.errors import ReproError
from repro.robustness.limits import ResourceBudget

KERNELS = ("pure", "numpy")


def _text(n: int = 30_000) -> bytes:
    rng = random.Random(20)
    out = bytearray()
    rid = 0
    while len(out) < n:
        rid += 1
        k = rng.randint(60, 90)
        seq = bytes(rng.choice(b"ACGT") for _ in range(k))
        qual = bytes(rng.randint(33, 73) for _ in range(k))
        out += b"@read%d\n" % rid + seq + b"\n+\n" + qual + b"\n"
    return bytes(out[:n])


def _encode(plain: bytes, cuts) -> bytes:
    """Raw DEFLATE of ``plain``: one block per cut (an output position,
    rounded up to a token end), ``None`` for an empty stored block."""
    tokens = parse_lz77(plain, 6)
    offs, vals = tokens.lists()
    ends = np.cumsum(np.where(np.asarray(offs) == 0, 1, np.asarray(vals)))
    writer = BitWriter()
    start = 0
    for cut in cuts:
        if cut is None:
            _emit_stored(writer, b"", bfinal=False)
            continue
        stop = int(np.searchsorted(ends, cut)) + 1 if cut < len(plain) else len(ends)
        lo = int(ends[start - 1]) if start else 0
        _flush_block(writer, tokens, start, stop, plain[lo : int(ends[stop - 1])], stop == len(ends))
        start = stop
    return writer.getvalue()


_TEXT = _text()
_RNG = random.Random(21)
_BINARY = bytes(_RNG.randrange(256) for _ in range(3000))
#: Mixed stream: dynamic, fixed, dynamic, stored, empty stored, two
#: dynamic, and a final block of overlapping ``ACGT`` matches.
PLAIN = _TEXT[:12000] + _BINARY + _TEXT[12000:] + b"ACGT" * 1000
DATA = _encode(PLAIN, [6000, 6113, 12000, 15000, None, 25000, 33000, len(PLAIN)])
#: ASCII-only stream for strict decodes: every block >= 1 KiB.
ASCII_PLAIN = _TEXT
ASCII_DATA = _encode(ASCII_PLAIN, [8000, 16000, None, 24000, len(ASCII_PLAIN)])

STREAM_DIGESTS = {'DATA': 'c0162f3283691c6e', 'ASCII_DATA': '0f90d2e3e6a9ff8e'}

#: ``(start_bit, end_bit, out_start, out_end, btype, bfinal)``.
BLOCKS = [
    (0, 27031, 0, 6000, 2, False),
    (27031, 27576, 6000, 6113, 1, False),
    (27576, 53256, 6113, 12000, 2, False),
    (53256, 77296, 12000, 15000, 0, False),
    (77296, 77336, 15000, 15000, 0, False),
    (77336, 120555, 15000, 25000, 2, False),
    (120555, 155041, 25000, 33003, 2, False),
    (155041, 155214, 33003, 37000, 2, True),
]
ASCII_BLOCKS = [
    (0, 35777, 0, 8000, 2, False),
    (35777, 70445, 8000, 16000, 2, False),
    (70445, 70480, 16000, 16000, 0, False),
    (70480, 104698, 16000, 24000, 2, False),
    (104698, 130630, 24000, 30000, 2, True),
]


def _digest(raw) -> str:
    return hashlib.sha256(bytes(raw)).hexdigest()[:16]


def _table(blocks) -> list[tuple]:
    return [
        (b.start_bit, b.end_bit, b.out_start, b.out_end, b.btype, b.bfinal) for b in blocks
    ]


def _error(exc: ReproError) -> tuple:
    return ("error", type(exc).__name__, exc.bit_offset, getattr(exc, "limit", None))


def observe_inflate(data, **kw) -> tuple:
    """The byte driver's outcome as comparable literals."""
    try:
        r = inflate(data, **kw)
    except ReproError as exc:
        return _error(exc)
    tokens = None
    if r.tokens is not None:
        tokens = _digest(
            np.asarray(r.tokens.offsets(), np.int32).tobytes()
            + np.asarray(r.tokens.values(), np.int32).tobytes()
        )
    return (
        "ok", len(r.data), _digest(r.data), r.end_bit, r.final_seen,
        r.hit_final_probe, len(r.blocks), _digest(repr(_table(r.blocks)).encode()), tokens,
    )


def observe_marker(data, **kw) -> tuple:
    """The marker driver's outcome as comparable literals; with a sink,
    its calls (sizes and start positions) and everything it received."""
    calls = []
    received = []
    if kw.pop("sink", False):

        def sink(symbols, start):
            calls.append((len(symbols), start))
            received.append(np.asarray(symbols, np.int32))

        kw["sink"] = sink
    try:
        r = marker_inflate(data, **kw)
    except ReproError as exc:
        return _error(exc)
    if r.symbols is None:
        streamed = np.concatenate(received) if received else np.zeros(0, np.int32)
        symbols = _digest(streamed.astype(np.int32).tobytes())
    else:
        symbols = _digest(np.asarray(r.symbols, np.int32).tobytes())
    return (
        "ok", r.total_output, symbols, r.end_bit, r.truncated, r.final_seen,
        len(r.blocks), _digest(repr(_table(r.blocks)).encode()),
        _digest(np.asarray(r.window, np.int32).tobytes()), tuple(calls),
    )


def _boundary_limits(blocks, base: int) -> list[int]:
    """0, each block's midpoint, and every block end -1/0/+1 (relative
    to ``base``)."""
    limits = {0}
    for _s, _e, lo, hi, _t, _f in blocks:
        limits.add((lo + hi) // 2 - base)
        limits.update((hi - base - 1, hi - base, hi - base + 1))
    return sorted(v for v in limits if v >= 0)


def inflate_cases() -> dict[str, tuple[bytes, dict]]:
    cases: dict[str, tuple[bytes, dict]] = {}
    for v in _boundary_limits(BLOCKS, 0):
        cases[f"max_output={v}"] = (DATA, {"max_output": v})
    for n in range(len(BLOCKS) + 2):
        cases[f"max_blocks={n}"] = (DATA, {"max_blocks": n})
    cases["stop_at_final=False"] = (DATA, {"stop_at_final": False})
    cases["tokens"] = (DATA, {"capture_tokens": True})
    cases["tokens,max_output=13000"] = (DATA, {"capture_tokens": True, "max_output": 13000})
    # Caps inside a dynamic block (a match crosses), exactly at a block
    # end, inside the stored block (literal growth, caught at the
    # block's end) and inside the final block's long matches.
    for cap in (3000, 12000, 13500, 35000):
        cases[f"budget={cap}"] = (DATA, {"budget": ResourceBudget(max_output_bytes=cap)})
        cases[f"tokens,budget={cap}"] = (
            DATA, {"budget": ResourceBudget(max_output_bytes=cap), "capture_tokens": True},
        )
    cases["budget=expansion"] = (
        DATA, {"budget": ResourceBudget(max_expansion_ratio=1.5, expansion_grace_bytes=4000)},
    )
    for k in (1, 3, 5, 7):
        start, out_start = BLOCKS[k][0], BLOCKS[k][2]
        cases[f"resume@{k}"] = (
            DATA, {"start_bit": start, "window": PLAIN[:out_start][-32768:]},
        )
        cases[f"resume@{k},window=100"] = (
            DATA, {"start_bit": start, "window": PLAIN[out_start - 100 : out_start]},
        )
    cases["resume@5,budget=2000"] = (
        DATA,
        {"start_bit": BLOCKS[5][0], "window": PLAIN[:15000],
         "budget": ResourceBudget(max_output_bytes=2000)},
    )
    for k in range(len(ASCII_BLOCKS)):
        start = ASCII_BLOCKS[k][0]
        cases[f"strict@{k}"] = (ASCII_DATA, {"start_bit": start, "strict": True})
        cases[f"strict@{k}+1"] = (ASCII_DATA, {"start_bit": start + 1, "strict": True})
        cases[f"strict@{k},max_blocks=1"] = (
            ASCII_DATA, {"start_bit": start, "strict": True, "max_blocks": 1},
        )
        cases[f"strict@{k},tokens"] = (
            ASCII_DATA, {"start_bit": start, "strict": True, "capture_tokens": True},
        )
    cases["strict@0,max_output=9000"] = (
        ASCII_DATA, {"strict": True, "max_output": 9000},
    )
    cases["strict,mixed"] = (DATA, {"strict": True})
    return cases


#: Marker-domain cases start at block 2 with an undetermined window, so
#: back-references into the unknown context yield markers.
MARKER_START = 2


def marker_cases() -> dict[str, tuple[bytes, dict]]:
    start = BLOCKS[MARKER_START][0]
    base = BLOCKS[MARKER_START][2]
    rest = BLOCKS[MARKER_START:]
    cases: dict[str, tuple[bytes, dict]] = {}
    for v in _boundary_limits(rest, base):
        cases[f"max_output={v}"] = (DATA, {"start_bit": start, "max_output": v})
    for n in range(len(rest) + 2):
        cases[f"max_blocks={n}"] = (DATA, {"start_bit": start, "max_blocks": n})
    stops = {start}
    for s, e, *_ in rest:
        stops.update((s, s + 1, (s + e) // 2))
    for stop in sorted(stops):
        cases[f"stop_bit={stop}"] = (DATA, {"start_bit": start, "stop_bit": stop})
    cases["stop_at_final=False"] = (DATA, {"start_bit": start, "stop_at_final": False})
    for flush in (1000, 5000, 1 << 20):
        cases[f"sink,flush={flush}"] = (
            DATA, {"start_bit": start, "sink": True, "flush_symbols": flush},
        )
        cases[f"sink,flush={flush},max_output=9000"] = (
            DATA,
            {"start_bit": start, "sink": True, "flush_symbols": flush, "max_output": 9000},
        )
    for cap in (2000, 5887, 7400, 25000):
        cases[f"budget={cap}"] = (
            DATA, {"start_bit": start, "budget": ResourceBudget(max_output_bytes=cap)},
        )
    # Marker buffer: the whole output stays resident without a sink,
    # only the unflushed part with one.
    buffer = ResourceBudget(max_marker_buffer_bytes=4 * (32768 + 20000))
    cases["budget=buffer"] = (DATA, {"start_bit": start, "budget": buffer})
    cases["budget=buffer,sink"] = (
        DATA, {"start_bit": start, "budget": buffer, "sink": True, "flush_symbols": 5000},
    )
    cases["from0"] = (DATA, {})
    cases["from0,window=bytes"] = (DATA, {"window": b"xyz"})
    cases["window=known"] = (
        DATA, {"start_bit": BLOCKS[5][0], "window": PLAIN[: BLOCKS[5][2]]},
    )
    cases["window=symbols"] = (
        DATA,
        {"start_bit": BLOCKS[5][0], "window": np.arange(256, 256 + 1000, dtype=np.int32)},
    )
    return cases


# Outcomes recorded from the pure drivers that preceded the shared
# per-domain driver.  A mismatch is a change of driver semantics: do not
# regenerate these from the code under test.
GOLDEN_INFLATE: dict[str, tuple] = {
    'budget=3000': ('error', 'ResourceLimitError', 13928, 'output_bytes'),
    'budget=12000': ('error', 'ResourceLimitError', 53256, 'output_bytes'),
    'budget=13500': ('error', 'ResourceLimitError', 53256, 'output_bytes'),
    'budget=35000': ('error', 'ResourceLimitError', 155190, 'output_bytes'),
    'budget=expansion': ('error', 'ResourceLimitError', 0, 'expansion_ratio'),
    'max_blocks=0': ('ok', 0, 'e3b0c44298fc1c14', 0, False, False, 0, '4f53cda18c2baa0c', None),
    'max_blocks=1': ('ok', 6000, '35a4c5fce5ff1a16', 27031, False, False, 1, 'c1c730a8ef0358bc', None),
    'max_blocks=2': ('ok', 6113, '247a8ac01e5db0e9', 27576, False, False, 2, 'fa1736ea46963638', None),
    'max_blocks=3': ('ok', 12000, '6cba8585f8e35a60', 53256, False, False, 3, '9e61a8202f3e9a61', None),
    'max_blocks=4': ('ok', 15000, '4a26354e99b3099a', 77296, False, False, 4, 'a45bdd724ab359a1', None),
    'max_blocks=5': ('ok', 15000, '4a26354e99b3099a', 77336, False, False, 5, '1ddfdcb76ad82ce5', None),
    'max_blocks=6': ('ok', 25000, '603f20ef25ce8c91', 120555, False, False, 6, '6f91e351b46e8361', None),
    'max_blocks=7': ('ok', 33003, '4e87da3b4b648f62', 155041, False, False, 7, '340b702de94b0c0c', None),
    'max_blocks=8': ('ok', 37000, '3599605921e04008', 155214, True, False, 8, '6bf0785080ce9da0', None),
    'max_blocks=9': ('ok', 37000, '3599605921e04008', 155214, True, False, 8, '6bf0785080ce9da0', None),
    'max_output=0': ('ok', 0, 'e3b0c44298fc1c14', 0, False, False, 0, '4f53cda18c2baa0c', None),
    'max_output=3000': ('ok', 6000, '35a4c5fce5ff1a16', 27031, False, False, 1, 'c1c730a8ef0358bc', None),
    'max_output=5999': ('ok', 6000, '35a4c5fce5ff1a16', 27031, False, False, 1, 'c1c730a8ef0358bc', None),
    'max_output=6000': ('ok', 6000, '35a4c5fce5ff1a16', 27031, False, False, 1, 'c1c730a8ef0358bc', None),
    'max_output=6001': ('ok', 6113, '247a8ac01e5db0e9', 27576, False, False, 2, 'fa1736ea46963638', None),
    'max_output=6056': ('ok', 6113, '247a8ac01e5db0e9', 27576, False, False, 2, 'fa1736ea46963638', None),
    'max_output=6112': ('ok', 6113, '247a8ac01e5db0e9', 27576, False, False, 2, 'fa1736ea46963638', None),
    'max_output=6113': ('ok', 6113, '247a8ac01e5db0e9', 27576, False, False, 2, 'fa1736ea46963638', None),
    'max_output=6114': ('ok', 12000, '6cba8585f8e35a60', 53256, False, False, 3, '9e61a8202f3e9a61', None),
    'max_output=9056': ('ok', 12000, '6cba8585f8e35a60', 53256, False, False, 3, '9e61a8202f3e9a61', None),
    'max_output=11999': ('ok', 12000, '6cba8585f8e35a60', 53256, False, False, 3, '9e61a8202f3e9a61', None),
    'max_output=12000': ('ok', 12000, '6cba8585f8e35a60', 53256, False, False, 3, '9e61a8202f3e9a61', None),
    'max_output=12001': ('ok', 15000, '4a26354e99b3099a', 77296, False, False, 4, 'a45bdd724ab359a1', None),
    'max_output=13500': ('ok', 15000, '4a26354e99b3099a', 77296, False, False, 4, 'a45bdd724ab359a1', None),
    'max_output=14999': ('ok', 15000, '4a26354e99b3099a', 77296, False, False, 4, 'a45bdd724ab359a1', None),
    'max_output=15000': ('ok', 15000, '4a26354e99b3099a', 77296, False, False, 4, 'a45bdd724ab359a1', None),
    'max_output=15001': ('ok', 25000, '603f20ef25ce8c91', 120555, False, False, 6, '6f91e351b46e8361', None),
    'max_output=20000': ('ok', 25000, '603f20ef25ce8c91', 120555, False, False, 6, '6f91e351b46e8361', None),
    'max_output=24999': ('ok', 25000, '603f20ef25ce8c91', 120555, False, False, 6, '6f91e351b46e8361', None),
    'max_output=25000': ('ok', 25000, '603f20ef25ce8c91', 120555, False, False, 6, '6f91e351b46e8361', None),
    'max_output=25001': ('ok', 33003, '4e87da3b4b648f62', 155041, False, False, 7, '340b702de94b0c0c', None),
    'max_output=29001': ('ok', 33003, '4e87da3b4b648f62', 155041, False, False, 7, '340b702de94b0c0c', None),
    'max_output=33002': ('ok', 33003, '4e87da3b4b648f62', 155041, False, False, 7, '340b702de94b0c0c', None),
    'max_output=33003': ('ok', 33003, '4e87da3b4b648f62', 155041, False, False, 7, '340b702de94b0c0c', None),
    'max_output=33004': ('ok', 37000, '3599605921e04008', 155214, True, False, 8, '6bf0785080ce9da0', None),
    'max_output=35001': ('ok', 37000, '3599605921e04008', 155214, True, False, 8, '6bf0785080ce9da0', None),
    'max_output=36999': ('ok', 37000, '3599605921e04008', 155214, True, False, 8, '6bf0785080ce9da0', None),
    'max_output=37000': ('ok', 37000, '3599605921e04008', 155214, True, False, 8, '6bf0785080ce9da0', None),
    'max_output=37001': ('ok', 37000, '3599605921e04008', 155214, True, False, 8, '6bf0785080ce9da0', None),
    'resume@1': ('ok', 31000, '626f5a7529eddc04', 155214, True, False, 7, 'c968486be31a5bd3', None),
    'resume@3': ('ok', 25000, '44d486e29780bc2f', 155214, True, False, 5, 'fbfb384c67546f38', None),
    'resume@5': ('ok', 22000, '20118ad4b37064fc', 155214, True, False, 3, 'c2e1bbb78fa375d0', None),
    'resume@7': ('ok', 3997, '94760ca68bf1366c', 155214, True, False, 1, '23dbb6870a9b25fe', None),
    'resume@5,budget=2000': ('error', 'ResourceLimitError', 86222, 'output_bytes'),
    'resume@1,window=100': ('error', 'BackrefError', 27160, None),
    'resume@3,window=100': ('error', 'BackrefError', 77666, None),
    'resume@5,window=100': ('error', 'BackrefError', 77666, None),
    'resume@7,window=100': ('ok', 3997, '94760ca68bf1366c', 155214, True, False, 1, '23dbb6870a9b25fe', None),
    'stop_at_final=False': ('ok', 37000, '3599605921e04008', 155214, True, False, 8, '6bf0785080ce9da0', None),
    'strict,mixed': ('error', 'BlockSizeError', 27031, None),
    'strict@0': ('ok', 30000, '8ae689d65108f4e4', 130630, True, True, 5, '2d278879a9aa90d3', None),
    'strict@1': ('ok', 22000, '25eade7f98630fcf', 130630, True, True, 4, '2e9b825c200912a1', None),
    'strict@2': ('ok', 14000, 'bf76e4490a9470fa', 130630, True, True, 3, '5214cd676c360b34', None),
    'strict@3': ('ok', 14000, 'bf76e4490a9470fa', 130630, True, True, 2, 'ef5b5a67377175ef', None),
    'strict@4': ('error', 'BlockHeaderError', 104699, None),
    'strict@0+1': ('error', 'AsciiCheckError', 68, None),
    'strict@1+1': ('error', 'BlockHeaderError', 35781, None),
    'strict@2+1': ('error', 'BlockHeaderError', 70488, None),
    'strict@3+1': ('error', 'HuffmanError', 70576, None),
    'strict@4+1': ('error', 'AsciiCheckError', 104729, None),
    'strict@0,max_blocks=1': ('ok', 8000, '182251868a197fb3', 35777, False, False, 1, '75824d03dbf1c38d', None),
    'strict@1,max_blocks=1': ('ok', 8000, '2657c5a7fda1d884', 70445, False, False, 1, '47d8ebe00a368916', None),
    'strict@2,max_blocks=1': ('ok', 0, 'e3b0c44298fc1c14', 70480, False, False, 1, 'b2187d5000af2e0d', None),
    'strict@3,max_blocks=1': ('ok', 8000, '25a4f98416234efc', 104698, False, False, 1, '8f5fd8e907efe881', None),
    'strict@4,max_blocks=1': ('error', 'BlockHeaderError', 104699, None),
    'strict@0,max_output=9000': ('ok', 16000, 'c0f651082f6e572b', 70445, False, False, 2, '3053d30c74bd660f', None),
    'strict@0,tokens': ('ok', 30000, '8ae689d65108f4e4', 130630, True, True, 5, '2d278879a9aa90d3', 'bafe483f3433dc4c'),
    'strict@1,tokens': ('ok', 22000, '25eade7f98630fcf', 130630, True, True, 4, '2e9b825c200912a1', 'e5b6bdd7ea661445'),
    'strict@2,tokens': ('ok', 14000, 'bf76e4490a9470fa', 130630, True, True, 3, '5214cd676c360b34', '0ea37e1fe9d487ca'),
    'strict@3,tokens': ('ok', 14000, 'bf76e4490a9470fa', 130630, True, True, 2, 'ef5b5a67377175ef', '0ea37e1fe9d487ca'),
    'strict@4,tokens': ('error', 'BlockHeaderError', 104699, None),
    'tokens': ('ok', 37000, '3599605921e04008', 155214, True, False, 8, '6bf0785080ce9da0', 'adf19f7dfd1d69de'),
    'tokens,budget=3000': ('error', 'ResourceLimitError', 0, 'output_bytes'),
    'tokens,budget=12000': ('error', 'ResourceLimitError', 53256, 'output_bytes'),
    'tokens,budget=13500': ('error', 'ResourceLimitError', 53256, 'output_bytes'),
    'tokens,budget=35000': ('error', 'ResourceLimitError', 155041, 'output_bytes'),
    'tokens,max_output=13000': ('ok', 15000, '4a26354e99b3099a', 77296, False, False, 4, 'a45bdd724ab359a1', '7d319a410b1504a5'),
}
GOLDEN_MARKER: dict[str, tuple] = {
    'budget=2000': ('error', 'ResourceLimitError', 36587, 'marker_symbols'),
    'budget=5887': ('error', 'ResourceLimitError', 53256, 'output_bytes'),
    'budget=7400': ('error', 'ResourceLimitError', 53256, 'output_bytes'),
    'budget=25000': ('error', 'ResourceLimitError', 146883, 'marker_symbols'),
    'budget=buffer': ('error', 'ResourceLimitError', 120555, 'marker_buffer_bytes'),
    'budget=buffer,sink': ('ok', 30887, '1fd61afa1e19d38a', 155214, False, True, 6, '5d9da278a9af56ce', '772c46dbe285d1c2', ((5887, 0), (13000, 5887), (8003, 18887), (3997, 26890))),
    'from0': ('ok', 37000, 'dd2a3f9a6c843227', 155214, False, True, 8, '6bf0785080ce9da0', 'd9ac6ec5d5e776ea', ()),
    'from0,window=bytes': ('ok', 37000, 'dd2a3f9a6c843227', 155214, False, True, 8, '6bf0785080ce9da0', 'd9ac6ec5d5e776ea', ()),
    'max_blocks=0': ('ok', 0, 'e3b0c44298fc1c14', 27576, False, False, 0, '4f53cda18c2baa0c', 'c8933014b912ef7f', ()),
    'max_blocks=1': ('ok', 5887, '208541b4af9d0001', 53256, False, False, 1, '370a364057294f70', 'c419f63972728017', ()),
    'max_blocks=2': ('ok', 8887, 'da556d8bf3d5f56a', 77296, False, False, 2, '3b4153dcfb61c81b', '12cb339036a14175', ()),
    'max_blocks=3': ('ok', 8887, 'da556d8bf3d5f56a', 77336, False, False, 3, 'bf93a68575e63589', '12cb339036a14175', ()),
    'max_blocks=4': ('ok', 18887, '0454ede9ae6b9dd2', 120555, False, False, 4, 'e3b5225171e240c2', 'cd99c5d3b9d8c2ee', ()),
    'max_blocks=5': ('ok', 26890, '6aefb2cf95004af4', 155041, False, False, 5, '171e3bed5468a26a', '1e3800f11074d286', ()),
    'max_blocks=6': ('ok', 30887, '1fd61afa1e19d38a', 155214, False, True, 6, '5d9da278a9af56ce', '772c46dbe285d1c2', ()),
    'max_blocks=7': ('ok', 30887, '1fd61afa1e19d38a', 155214, False, True, 6, '5d9da278a9af56ce', '772c46dbe285d1c2', ()),
    'max_output=0': ('ok', 0, 'e3b0c44298fc1c14', 27576, True, False, 0, '4f53cda18c2baa0c', 'c8933014b912ef7f', ()),
    'max_output=2943': ('ok', 2949, '9b2ba076e20fbdce', 40657, True, False, 1, '0af7f03bf4133e6e', '9690f7b97b77b500', ()),
    'max_output=5886': ('ok', 5887, '208541b4af9d0001', 53247, True, False, 1, '6a7cb8cecfaa4423', 'c419f63972728017', ()),
    'max_output=5887': ('ok', 5887, '208541b4af9d0001', 53247, True, False, 1, '6a7cb8cecfaa4423', 'c419f63972728017', ()),
    'max_output=5888': ('ok', 8887, 'da556d8bf3d5f56a', 77296, True, False, 2, '3b4153dcfb61c81b', '12cb339036a14175', ()),
    'max_output=7387': ('ok', 8887, 'da556d8bf3d5f56a', 77296, True, False, 2, '3b4153dcfb61c81b', '12cb339036a14175', ()),
    'max_output=8886': ('ok', 8887, 'da556d8bf3d5f56a', 77296, True, False, 2, '3b4153dcfb61c81b', '12cb339036a14175', ()),
    'max_output=8887': ('ok', 8887, 'da556d8bf3d5f56a', 77296, True, False, 2, '3b4153dcfb61c81b', '12cb339036a14175', ()),
    'max_output=8888': ('ok', 8888, '09420e0179ec5b2c', 77647, True, False, 4, 'e7169aaa7fb76179', 'e20e8048334351d3', ()),
    'max_output=13887': ('ok', 13891, '23f24401093ed89c', 99071, True, False, 4, 'a3be38b47c40c27c', '77ec26ea2a175679', ()),
    'max_output=18886': ('ok', 18886, 'f7e207474d914b40', 120539, True, False, 4, '44d8e5b536797eb8', '39048e3b7049ca3c', ()),
    'max_output=18887': ('ok', 18887, '0454ede9ae6b9dd2', 120545, True, False, 4, 'c4c66203f8009510', 'cd99c5d3b9d8c2ee', ()),
    'max_output=18888': ('ok', 18888, 'b3885d1d19556c24', 120875, True, False, 5, 'da78b6cf4d47c666', 'afa68e0aa89fd9e5', ()),
    'max_output=22888': ('ok', 22888, '7d6884b1b7d830c9', 137847, True, False, 5, 'f53045848de99109', 'afe34d79d2f1badd', ()),
    'max_output=26889': ('ok', 26890, '6aefb2cf95004af4', 155032, True, False, 5, '93c2b6b9958568c2', '1e3800f11074d286', ()),
    'max_output=26890': ('ok', 26890, '6aefb2cf95004af4', 155032, True, False, 5, '93c2b6b9958568c2', '1e3800f11074d286', ()),
    'max_output=26891': ('ok', 26891, '0226cc0e43ad0565', 155174, True, False, 6, '3e2df3cf819c9c06', 'cc8b4ca7b4c4be54', ()),
    'max_output=28888': ('ok', 28955, 'f198d31004f7bcdc', 155190, True, False, 6, '9aecc05e6ff7b3b8', 'dd62ff120f41b9b2', ()),
    'max_output=30886': ('ok', 30887, '1fd61afa1e19d38a', 155211, True, False, 6, '9ce119ebc57a24e8', '772c46dbe285d1c2', ()),
    'max_output=30887': ('ok', 30887, '1fd61afa1e19d38a', 155211, True, False, 6, '9ce119ebc57a24e8', '772c46dbe285d1c2', ()),
    'max_output=30888': ('ok', 30887, '1fd61afa1e19d38a', 155214, False, True, 6, '5d9da278a9af56ce', '772c46dbe285d1c2', ()),
    'sink,flush=1000': ('ok', 30887, '1fd61afa1e19d38a', 155214, False, True, 6, '5d9da278a9af56ce', '772c46dbe285d1c2', ((5887, 0), (3000, 5887), (10000, 8887), (8003, 18887), (3997, 26890))),
    'sink,flush=5000': ('ok', 30887, '1fd61afa1e19d38a', 155214, False, True, 6, '5d9da278a9af56ce', '772c46dbe285d1c2', ((5887, 0), (13000, 5887), (8003, 18887), (3997, 26890))),
    'sink,flush=1048576': ('ok', 30887, '1fd61afa1e19d38a', 155214, False, True, 6, '5d9da278a9af56ce', '772c46dbe285d1c2', ((30887, 0),)),
    'sink,flush=1000,max_output=9000': ('ok', 9000, 'f7c907f805b834c8', 78082, True, False, 4, '9d2524034cda1ea8', '5885c4e2694d07fc', ((5887, 0), (3000, 5887), (113, 8887))),
    'sink,flush=5000,max_output=9000': ('ok', 9000, 'f7c907f805b834c8', 78082, True, False, 4, '9d2524034cda1ea8', '5885c4e2694d07fc', ((5887, 0), (3113, 5887))),
    'sink,flush=1048576,max_output=9000': ('ok', 9000, 'f7c907f805b834c8', 78082, True, False, 4, '9d2524034cda1ea8', '5885c4e2694d07fc', ((9000, 0),)),
    'stop_at_final=False': ('ok', 30887, '1fd61afa1e19d38a', 155214, False, True, 6, '5d9da278a9af56ce', '772c46dbe285d1c2', ()),
    'stop_bit=27576': ('ok', 0, 'e3b0c44298fc1c14', 27576, False, False, 0, '4f53cda18c2baa0c', 'c8933014b912ef7f', ()),
    'stop_bit=27577': ('ok', 5887, '208541b4af9d0001', 53256, False, False, 1, '370a364057294f70', 'c419f63972728017', ()),
    'stop_bit=40416': ('ok', 5887, '208541b4af9d0001', 53256, False, False, 1, '370a364057294f70', 'c419f63972728017', ()),
    'stop_bit=53256': ('ok', 5887, '208541b4af9d0001', 53256, False, False, 1, '370a364057294f70', 'c419f63972728017', ()),
    'stop_bit=53257': ('ok', 8887, 'da556d8bf3d5f56a', 77296, False, False, 2, '3b4153dcfb61c81b', '12cb339036a14175', ()),
    'stop_bit=65276': ('ok', 8887, 'da556d8bf3d5f56a', 77296, False, False, 2, '3b4153dcfb61c81b', '12cb339036a14175', ()),
    'stop_bit=77296': ('ok', 8887, 'da556d8bf3d5f56a', 77296, False, False, 2, '3b4153dcfb61c81b', '12cb339036a14175', ()),
    'stop_bit=77297': ('ok', 8887, 'da556d8bf3d5f56a', 77336, False, False, 3, 'bf93a68575e63589', '12cb339036a14175', ()),
    'stop_bit=77316': ('ok', 8887, 'da556d8bf3d5f56a', 77336, False, False, 3, 'bf93a68575e63589', '12cb339036a14175', ()),
    'stop_bit=77336': ('ok', 8887, 'da556d8bf3d5f56a', 77336, False, False, 3, 'bf93a68575e63589', '12cb339036a14175', ()),
    'stop_bit=77337': ('ok', 18887, '0454ede9ae6b9dd2', 120555, False, False, 4, 'e3b5225171e240c2', 'cd99c5d3b9d8c2ee', ()),
    'stop_bit=98945': ('ok', 18887, '0454ede9ae6b9dd2', 120555, False, False, 4, 'e3b5225171e240c2', 'cd99c5d3b9d8c2ee', ()),
    'stop_bit=120555': ('ok', 18887, '0454ede9ae6b9dd2', 120555, False, False, 4, 'e3b5225171e240c2', 'cd99c5d3b9d8c2ee', ()),
    'stop_bit=120556': ('ok', 26890, '6aefb2cf95004af4', 155041, False, False, 5, '171e3bed5468a26a', '1e3800f11074d286', ()),
    'stop_bit=137798': ('ok', 26890, '6aefb2cf95004af4', 155041, False, False, 5, '171e3bed5468a26a', '1e3800f11074d286', ()),
    'stop_bit=155041': ('ok', 26890, '6aefb2cf95004af4', 155041, False, False, 5, '171e3bed5468a26a', '1e3800f11074d286', ()),
    'stop_bit=155042': ('ok', 30887, '1fd61afa1e19d38a', 155214, False, True, 6, '5d9da278a9af56ce', '772c46dbe285d1c2', ()),
    'stop_bit=155127': ('ok', 30887, '1fd61afa1e19d38a', 155214, False, True, 6, '5d9da278a9af56ce', '772c46dbe285d1c2', ()),
    'window=known': ('ok', 22000, '8bc0993a90f643bb', 155214, False, True, 3, 'c2e1bbb78fa375d0', 'd9ac6ec5d5e776ea', ()),
    'window=symbols': ('ok', 22000, '53ef960c005e4ba2', 155214, False, True, 3, 'c2e1bbb78fa375d0', 'fc401e8fdb6d10db', ()),
}


def test_streams_are_the_recorded_ones():
    assert {"DATA": _digest(DATA), "ASCII_DATA": _digest(ASCII_DATA)} == STREAM_DIGESTS


@pytest.mark.parametrize("kernel", KERNELS)
def test_block_tables(kernel):
    assert _table(inflate(DATA, kernel=kernel).blocks) == BLOCKS
    assert _table(inflate(ASCII_DATA, kernel=kernel).blocks) == ASCII_BLOCKS
    assert inflate(DATA, kernel=kernel).data == PLAIN


_INFLATE_CASES = inflate_cases()
_MARKER_CASES = marker_cases()


def test_every_case_has_a_literal():
    assert set(GOLDEN_INFLATE) == set(_INFLATE_CASES)
    assert set(GOLDEN_MARKER) == set(_MARKER_CASES)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("case", sorted(_INFLATE_CASES))
def test_inflate_edges(case, kernel):
    data, kw = _INFLATE_CASES[case]
    assert observe_inflate(data, kernel=kernel, **kw) == GOLDEN_INFLATE[case]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("case", sorted(_MARKER_CASES))
def test_marker_edges(case, kernel):
    data, kw = _MARKER_CASES[case]
    assert observe_marker(data, kernel=kernel, **dict(kw)) == GOLDEN_MARKER[case]
