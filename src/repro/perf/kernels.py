"""Pluggable decode kernels: selection and registry (PR 9).

Two kernels implement the DEFLATE hot path:

* ``pure``  — the tuned per-symbol Python loops of PR 5
  (:func:`repro.deflate.inflate._decode_huffman_block_fast` and the
  marker-domain twin).  Always available, always exact; the reference
  the numpy kernel must match byte-for-byte.
* ``numpy`` — the two-stage vectorized kernel
  (:mod:`repro.perf.npkernel`): stage 1 decodes a block to columnar
  token arrays with a speculative wavefront over precomputed bit
  windows, stage 2 replays the tokens with vectorized gathers.  Any
  anomaly (invalid symbol, truncation, deep recursion in the replay)
  falls back to the pure kernel *for that block*, so error semantics
  and bit positions are identical by construction.

Selection precedence: explicit ``kernel=`` argument > ``REPRO_KERNEL``
environment variable > auto-detection.  Auto-detection picks ``numpy``
when the payload is large enough to amortize the vectorized kernel's
per-block fixed cost (see :data:`MIN_AUTO_NUMPY_BYTES` and
docs/PERFORMANCE.md "Two-stage kernels"); an explicit argument or
environment selection is honoured regardless of size, which is what
lets the differential fuzz suite force the numpy kernel onto tiny
streams.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = [
    "KernelSpec",
    "KERNELS",
    "MIN_AUTO_NUMPY_BYTES",
    "resolve_kernel",
]

#: Below this payload size auto-detection keeps the pure kernel: the
#: numpy kernel pays ~3 ms of fixed numpy-dispatch cost per DEFLATE
#: block, which the pure loop beats outright on short streams (2-vCPU
#: Xeon VM: a one-block 200-byte DNA stream takes 3.2 ms against
#: 0.13 ms pure; at 16 KB of output per block, 5.1 ms against 4.1 ms).
MIN_AUTO_NUMPY_BYTES = 1 << 14

_ENV_VAR = "REPRO_KERNEL"
_NAMES = ("pure", "numpy")


@dataclass(frozen=True)
class KernelSpec:
    """One decode-kernel choice, resolved from argument/env/auto.

    ``source`` records how the kernel was chosen (``"arg"`` / ``"env"``
    / ``"auto"``): an explicit choice is honoured unconditionally,
    while an auto-detected ``numpy`` still defers to the pure loop on
    payloads too small to amortize its fixed costs.
    """

    name: str
    vectorized: bool
    source: str = "auto"

    def use_vectorized(self, payload_bytes: int | None = None) -> bool:
        """Should this decode use the vectorized kernel?"""
        if not self.vectorized:
            return False
        if self.source != "auto" or payload_bytes is None:
            return True
        return payload_bytes >= MIN_AUTO_NUMPY_BYTES


#: The kernel registry; keys are the public selector names.
KERNELS: dict[str, KernelSpec] = {
    "pure": KernelSpec("pure", vectorized=False),
    "numpy": KernelSpec("numpy", vectorized=True),
}


def _numpy_available() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:  # pragma: no cover - numpy is a hard test dep
        return False
    return True


def resolve_kernel(choice=None) -> KernelSpec:
    """Resolve a kernel selection to a :class:`KernelSpec`.

    ``choice`` may be ``None`` (consult ``REPRO_KERNEL``, then
    auto-detect), a kernel name, ``"auto"``, or an already-resolved
    :class:`KernelSpec` (returned unchanged, so specs thread through
    call chains at no cost).
    """
    if isinstance(choice, KernelSpec):
        return choice
    source = "arg"
    if choice is None or choice == "":
        choice = os.environ.get(_ENV_VAR) or None
        source = "env"
        if choice is None or choice == "auto":
            name = "numpy" if _numpy_available() else "pure"
            return KernelSpec(name, vectorized=(name == "numpy"), source="auto")
    if choice == "auto":
        name = "numpy" if _numpy_available() else "pure"
        return KernelSpec(name, vectorized=(name == "numpy"), source="auto")
    if choice not in _NAMES:
        raise ValueError(
            f"unknown decode kernel {choice!r}: expected one of "
            f"{', '.join(_NAMES)} or 'auto'"
        )
    base = KERNELS[choice]
    if base.vectorized and not _numpy_available():  # pragma: no cover
        raise ValueError("numpy kernel requested but numpy is not importable")
    return KernelSpec(base.name, base.vectorized, source=source)
