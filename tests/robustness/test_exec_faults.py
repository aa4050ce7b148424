"""Execution-fault injectors and the pugz degradation ladder.

These are the injectors that leave the bytes pristine and sabotage the
*executor* instead: supervision must turn a hung or dead worker into a
recovered, byte-identical run.  Also covers the ladder's serial rung
and multi-member salvage with a corrupt member between sync points.
"""

from __future__ import annotations

import gzip
import random

import pytest

from repro.core.pugz import pugz_decompress
from repro.parallel import SupervisionPolicy, ThreadExecutor
from repro.robustness import (
    ALL_INJECTOR_NAMES,
    EXECUTION_INJECTOR_NAMES,
    ExecutionFault,
    FaultCase,
    INJECTOR_NAMES,
    SabotageExecutor,
    inject,
)
from repro.robustness.exec_faults import WorkerSabotage


def _corpus(n=40_000, seed=7):
    """pigz-style multiblock stream: chunkable, so pass 1 really fans
    out (a single-block gzip collapses to one chunk and the sabotage
    would hit the inline no-preemption path instead of the pool)."""
    from repro.core.pigz import pigz_compress

    rng = random.Random(seed)
    plain = bytes(rng.choice(b"ACGTN\n") for _ in range(n))
    return plain, pigz_compress(plain, level=6, chunk_size=4096)


class TestRegistry:
    def test_execution_names_registered(self):
        assert EXECUTION_INJECTOR_NAMES == ("slow_worker", "crashing_worker")
        for name in EXECUTION_INJECTOR_NAMES:
            assert name in ALL_INJECTOR_NAMES
            assert name not in INJECTOR_NAMES

    @pytest.mark.parametrize("name", EXECUTION_INJECTOR_NAMES)
    def test_inject_leaves_bytes_alone(self, name):
        _, gz = _corpus()
        assert inject(FaultCase("c", name, 5), gz) == gz

    def test_from_injector_rejects_unknown(self):
        with pytest.raises(ValueError):
            ExecutionFault.from_injector("unknown_fault", 1)

    def test_fault_is_seeded(self):
        a = ExecutionFault.from_injector("crashing_worker", 3)
        b = ExecutionFault.from_injector("crashing_worker", 3)
        assert a == b


class TestSabotageExecutor:
    def test_fault_fires_exactly_once(self):
        fault = ExecutionFault("crash", seed=0)
        ex = SabotageExecutor(ThreadExecutor(2), fault)
        with pytest.raises(WorkerSabotage):
            ex.map(lambda x: x, [1, 2, 3])  # first map: sabotage fires
        assert ex.map(lambda x: x, [1, 2, 3]) == [1, 2, 3]  # then clean

    def test_rejects_process_inner(self):
        from repro.parallel import ProcessExecutor

        with ProcessExecutor(2) as inner, pytest.raises(ValueError):
            SabotageExecutor(inner, ExecutionFault("crash", 0))


class TestSupervisedPugz:
    @pytest.mark.parametrize("kind", EXECUTION_INJECTOR_NAMES)
    def test_sabotaged_run_recovers_byte_identical(self, kind):
        plain, gz = _corpus()
        fault = ExecutionFault.from_injector(kind, seed=1, sleep_s=0.5)
        executor = SabotageExecutor(ThreadExecutor(2), fault)
        policy = SupervisionPolicy(deadline_s=0.15, max_retries=2, backoff_base_s=0.01)
        out, rep = pugz_decompress(
            gz, executor=executor, n_chunks=2, return_report=True, supervision=policy
        )
        assert out == plain
        assert rep.chunk_details  # per-chunk accounting present
        assert max(d.retries for d in rep.chunk_details) >= 1

    def test_crash_without_supervision_degrades_to_serial(self):
        """With no retries available, the ladder's serial rung still
        produces an exact result (it is exact, so raise mode uses it)."""
        plain, gz = _corpus()
        fault = ExecutionFault.from_injector("crashing_worker", seed=1)
        executor = SabotageExecutor(ThreadExecutor(2), fault)
        out, rep = pugz_decompress(gz, executor=executor, n_chunks=2, return_report=True)
        assert out == plain
        assert any(d.degraded_to == "serial" for d in rep.chunk_details)

    def test_shorthand_kwargs_build_policy(self):
        plain, gz = _corpus()
        out = pugz_decompress(gz, n_chunks=2, deadline_s=30.0, max_retries=1)
        assert out == plain

    def test_supervision_and_shorthand_are_exclusive(self):
        _, gz = _corpus()
        with pytest.raises(ValueError):
            pugz_decompress(
                gz,
                deadline_s=1.0,
                supervision=SupervisionPolicy(max_retries=1),
            )

    def test_clean_run_chunk_details_all_ok(self):
        plain, gz = _corpus()
        out, rep = pugz_decompress(gz, n_chunks=2, return_report=True)
        assert out == plain
        assert [d.status for d in rep.chunk_details] == ["ok"] * len(rep.chunks)
        assert all(d.degraded_to is None and d.retries == 0 for d in rep.chunk_details)


class TestMultiMemberSalvage:
    def test_corrupt_member_between_sync_points(self):
        """Three members; the middle one's payload is wrecked.  Recover
        mode must keep member 1 exact, bound the damage inside member 2,
        and pick member 3 back up at its header (a guaranteed sync
        point)."""
        rng = random.Random(11)
        parts = [
            bytes(rng.choice(b"ACGT") for _ in range(20_000)) for _ in range(3)
        ]
        members = [gzip.compress(p, 6, mtime=0) for p in parts]
        damaged = bytearray(b"".join(members))
        # Stomp the middle of member 2's payload, leaving its header
        # (the sync point before it) and member 3's header intact.
        mid_start = len(members[0])
        stomp_at = mid_start + len(members[1]) // 2
        for i in range(stomp_at, stomp_at + 16):
            damaged[i] ^= 0xFF
        out, rep = pugz_decompress(
            bytes(damaged),
            n_chunks=2,
            on_error="recover",
            verify=True,  # payload stomps can decode to valid garbage;
            return_report=True,  # only the CRC sees that (ROBUSTNESS.md)
        )
        # Member 1 is untouched and must come back exact.
        assert out[: len(parts[0])] == parts[0]
        # Member 3 sits after the damage; its content must be present.
        assert parts[2] in out
        # The damage itself is accounted for, not silently absorbed.
        assert rep.holes or rep.verify_failures or rep.unresolved_markers
        assert not rep.is_complete
