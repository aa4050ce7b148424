"""The two-pass schedule model (``simulate_pugz``) and decode profiling."""

import pytest

from repro.perf import CostModel, simulate_pugz


def _model(cores: int = 8) -> CostModel:
    """A made-up machine: the properties below hold for any rates."""
    return CostModel(
        gunzip_mbps=40.0,
        libdeflate_mbps=120.0,
        pass1_mbps=30.0,
        translate_mbps=600.0,
        cat_mbps=2000.0,
        physical_cores=cores,
        sync_seconds=0.2,
        resolve_seconds_per_boundary=1e-4,
        compression_ratio=3.0,
    )


class TestScalingShape:
    def test_monotone_up_to_core_count(self):
        model = _model(cores=8)
        speeds = [simulate_pugz(model, 5000, n).speed_mbps for n in (1, 2, 4, 8)]
        assert all(a < b for a, b in zip(speeds, speeds[1:]))

    def test_saturates_past_cores(self):
        model = _model(cores=8)
        s8 = simulate_pugz(model, 5000, 8).speed_mbps
        s32 = simulate_pugz(model, 5000, 32).speed_mbps
        assert abs(s32 - s8) / s8 < 0.1

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError):
            simulate_pugz(_model(), 100, 0)


class TestProfiling:
    def test_profile_shape(self, fastq_small):
        from repro.data import gzip_zlib
        from repro.perf import profile_inflate

        gz = gzip_zlib(fastq_small, 6)
        profile = profile_inflate(gz)
        assert profile.output_bytes == len(fastq_small)
        assert profile.blocks >= 1
        assert profile.decode_mbps > 0
        total_frac = sum(frac for _, _, frac in profile.rows())
        assert 0.5 < total_frac <= 1.01
