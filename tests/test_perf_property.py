"""Property-based checks of the schedule model's structure."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import simulate_pugz
from tests.test_perf import _model

CORES = 24


class TestSimulatorProperties:
    @given(
        mb=st.floats(min_value=10, max_value=20000),
        n=st.integers(min_value=1, max_value=CORES),
    )
    @settings(max_examples=60, deadline=None)
    def test_speed_independent_of_file_size_asymptotically(self, mb, n):
        """Throughput converges for large files (sync amortises)."""
        model = _model(cores=CORES)
        small = simulate_pugz(model, mb, n).speed_mbps
        large = simulate_pugz(model, mb * 100, n).speed_mbps
        assert large >= small * 0.95

    @given(n=st.integers(min_value=1, max_value=CORES - 1))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_threads_below_cores(self, n):
        model = _model(cores=CORES)
        a = simulate_pugz(model, 5000, n).speed_mbps
        b = simulate_pugz(model, 5000, n + 1).speed_mbps
        assert b > a

    @given(scale=st.floats(min_value=1.1, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_pass1_rate(self, scale):
        model = _model(cores=CORES)
        faster = replace(model, pass1_mbps=model.pass1_mbps * scale)
        assert (
            simulate_pugz(faster, 5000, 16).speed_mbps
            > simulate_pugz(model, 5000, 16).speed_mbps
        )

    @given(
        ratio=st.floats(min_value=1.5, max_value=10.0),
        n=st.integers(min_value=2, max_value=32),
    )
    @settings(max_examples=30, deadline=None)
    def test_higher_compression_ratio_costs_translate_time(self, ratio, n):
        """More uncompressed bytes per compressed byte = more pass-2
        work = lower compressed-MB/s."""
        model = _model(cores=CORES)
        heavy = replace(model, compression_ratio=ratio * 2)
        light = replace(model, compression_ratio=ratio)
        assert (
            simulate_pugz(heavy, 5000, n).speed_mbps
            <= simulate_pugz(light, 5000, n).speed_mbps
        )
