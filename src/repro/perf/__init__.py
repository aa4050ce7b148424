"""Decode kernels, profiling, and the schedule model the repo benchmark prints."""

from repro.perf.costmodel import CostModel
from repro.perf.profiling import DecodeProfile, profile_inflate
from repro.perf.simulator import SimResult, simulate_pugz

__all__ = [
    "CostModel",
    "simulate_pugz",
    "SimResult",
    "profile_inflate",
    "DecodeProfile",
]
