"""Supervision layer: deadlines, bounded retries, pool rebuilding.

Worker functions live at module level so they cross the
``ProcessExecutor`` pickle boundary (REP016); the flaky ones key their
first-attempt failure on a marker file, which works identically for
threads and forked/spawned processes.
"""

from __future__ import annotations

import os
import pickle
import time

import pytest

from repro.errors import (
    DeadlineExceededError,
    GzipFormatError,
    ReproError,
    WorkerCrashError,
)
from repro.parallel import (
    Outcome,
    ProcessExecutor,
    SerialExecutor,
    SupervisionPolicy,
    ThreadExecutor,
    is_execution_fault,
    make_executor,
)


def _double(x):
    return 2 * x


def _sleepy(arg):
    delay, value = arg
    time.sleep(delay)
    return value


def _flaky_transient(arg):
    """Fails with an execution fault until its marker file exists."""
    marker, value = arg
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise OSError("transient worker failure")
    return value


def _die_once(arg):
    """Kills the whole worker process on the first attempt."""
    marker, value = arg
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(17)
    return value


def _always_oserror(_):
    raise OSError("persistent execution fault")


def _data_error(_):
    raise GzipFormatError("deterministic bad data", stage="container")


class TestPolicy:
    def test_inactive_by_default(self):
        assert not SupervisionPolicy().active
        assert SupervisionPolicy(deadline_s=1.0).active
        assert SupervisionPolicy(max_retries=1).active

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_s": 0.0},
            {"deadline_s": -1.0},
            {"max_retries": -1},
            {"backoff_base_s": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SupervisionPolicy(**kwargs)

    def test_backoff_is_deterministic_and_capped(self):
        p = SupervisionPolicy(backoff_base_s=0.05, backoff_cap_s=0.2, seed=7)
        assert p.backoff_s(3, 1) == p.backoff_s(3, 1)
        assert p.backoff_s(3, 1) != p.backoff_s(4, 1)
        for attempt in range(1, 12):
            assert 0.0 <= p.backoff_s(0, attempt) <= 0.2
        assert p.backoff_s(0, 0) == 0.0

    def test_is_execution_fault_taxonomy(self):
        assert is_execution_fault(OSError("io"))
        assert is_execution_fault(MemoryError())
        assert is_execution_fault(DeadlineExceededError("late", stage="supervision"))
        assert is_execution_fault(WorkerCrashError("dead", stage="supervision"))
        assert not is_execution_fault(GzipFormatError("bad", stage="container"))


class TestSupervisedMap:
    def test_no_policy_passthrough(self):
        outcomes = ThreadExecutor(2).map_outcomes(_double, [1, 2, 3])
        assert [o.value for o in outcomes] == [2, 4, 6]
        assert all(o.retries == 0 for o in outcomes)

    def test_deadline_ends_hung_worker(self):
        policy = SupervisionPolicy(deadline_s=0.15, backoff_base_s=0.0)
        outcomes = ThreadExecutor(2).map_outcomes(
            _sleepy, [(5.0, "hung"), (0.01, "quick")], policy
        )
        assert not outcomes[0].ok
        assert isinstance(outcomes[0].error, DeadlineExceededError)
        assert outcomes[0].error.chunk_index == 0
        assert outcomes[1].ok and outcomes[1].value == "quick"

    def test_retry_recovers_transient_fault(self, tmp_path):
        marker = str(tmp_path / "attempt.marker")
        policy = SupervisionPolicy(max_retries=2, backoff_base_s=0.0)
        outcomes = ThreadExecutor(2).map_outcomes(
            _flaky_transient, [(marker, "ok"), (str(tmp_path / "b"), "ok2")], policy
        )
        assert [o.value for o in outcomes] == ["ok", "ok2"]
        assert outcomes[0].retries == 1

    def test_serial_executor_retries_inline(self, tmp_path):
        marker = str(tmp_path / "serial.marker")
        policy = SupervisionPolicy(max_retries=1, backoff_base_s=0.0)
        (outcome,) = SerialExecutor().map_outcomes(
            _flaky_transient, [(marker, 41)], policy
        )
        assert outcome.ok and outcome.value == 41 and outcome.retries == 1

    def test_persistent_fault_exhausts_bounded_budget(self):
        policy = SupervisionPolicy(max_retries=2, backoff_base_s=0.0)
        t0 = time.perf_counter()
        outcomes = ThreadExecutor(2).map_outcomes(
            _always_oserror, [0, 1, 2], policy
        )
        assert time.perf_counter() - t0 < 30  # terminates, never spins
        assert all(not o.ok for o in outcomes)
        assert all(isinstance(o.error, OSError) for o in outcomes)

    def test_data_errors_never_retry(self):
        policy = SupervisionPolicy(max_retries=3, backoff_base_s=0.0)
        outcomes = ThreadExecutor(2).map_outcomes(_data_error, [0, 1], policy)
        for o in outcomes:
            assert isinstance(o.error, GzipFormatError)
            assert o.retries == 0

    def test_broken_process_pool_recovers(self, tmp_path):
        marker = str(tmp_path / "die.marker")
        policy = SupervisionPolicy(max_retries=2, backoff_base_s=0.0)
        with ProcessExecutor(2) as ex:
            outcomes = ex.map_outcomes(
                _die_once, [(marker, "revived"), (str(tmp_path / "x"), "fine")], policy
            )
        assert sorted(o.value for o in outcomes) == ["fine", "revived"]
        assert max(o.retries for o in outcomes) >= 1


class TestOutcomePickling:
    def test_success_round_trips(self):
        o = Outcome(index=3, value=b"data", retries=1, wall_time=0.5)
        o2 = pickle.loads(pickle.dumps(o))
        assert o2.index == 3 and o2.value == b"data"
        assert o2.retries == 1 and o2.wall_time == 0.5 and o2.ok

    def test_error_outcome_keeps_structured_context(self):
        err = DeadlineExceededError("late", chunk_index=5, stage="supervision")
        o2 = pickle.loads(pickle.dumps(Outcome(index=5, error=err, retries=2)))
        assert not o2.ok
        assert isinstance(o2.error, DeadlineExceededError)
        assert o2.error.chunk_index == 5
        assert o2.error.stage == "supervision"
        assert isinstance(o2.error, ReproError)


class TestMakeExecutorValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown executor kind"):
            make_executor("bogus", 2)

    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_workers_rejected(self, n):
        with pytest.raises(ValueError, match="n_workers"):
            make_executor("thread", n)

    def test_valid_kinds_construct(self):
        for kind in ("serial", "thread", "process"):
            assert make_executor(kind, 2) is not None
