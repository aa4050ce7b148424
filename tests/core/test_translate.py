"""Second-pass context resolution and chunk translation."""

import numpy as np
import pytest

from repro.core import marker
from repro.core.translate import final_window, translate_chunk
from repro.errors import ReproError


def concrete_window(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=32768).astype(np.int32)


class TestFinalWindow:
    def test_long_chunk(self):
        syms = np.arange(40000, dtype=np.int32) % 256
        w = final_window(syms)
        assert w.shape == (32768,)
        assert (w == syms[-32768:]).all()

    def test_short_chunk_uses_initial_window(self):
        initial = concrete_window(1)
        syms = np.array([7, 8, 9], dtype=np.int32)
        w = final_window(syms, initial)
        assert (w[-3:] == syms).all()
        assert (w[:-3] == initial[3:]).all()

    def test_short_chunk_without_initial_raises(self):
        with pytest.raises(ReproError):
            final_window(np.array([1], dtype=np.int32))


class TestTranslateChunk:
    def test_translate_resolves_and_converts(self):
        ctx = concrete_window(4)
        syms = np.array([65, marker.MARKER_BASE + 42, 67], dtype=np.int32)
        out = translate_chunk(syms, ctx)
        assert out == bytes([65, ctx[42], 67])

    def test_translate_raises_on_marker_in_context(self):
        ctx = concrete_window(5)
        ctx[7] = marker.MARKER_BASE + 3  # unresolved context entry
        syms = np.array([marker.MARKER_BASE + 7], dtype=np.int32)
        with pytest.raises(ReproError):
            translate_chunk(syms, ctx)
