"""Execution backends."""

import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.parallel import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
)
from repro.parallel.executor import owned_executor


def square(x):
    return x * x


class TestSerialExecutor:
    def test_order_preserved(self):
        assert SerialExecutor().map(square, [3, 1, 2]) == [9, 1, 4]

    def test_empty(self):
        assert SerialExecutor().map(square, []) == []

    def test_parallelism(self):
        assert SerialExecutor().parallelism == 1


class TestThreadExecutor:
    def test_order_preserved(self):
        assert ThreadExecutor(4).map(square, list(range(20))) == [i * i for i in range(20)]

    def test_single_item_inline(self):
        assert ThreadExecutor(4).map(square, [5]) == [25]

    def test_default_worker_count(self):
        assert ThreadExecutor().n_workers == (os.cpu_count() or 1)

    def test_exceptions_propagate(self):
        def boom(x):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            ThreadExecutor(2).map(boom, [1, 2])


def worker_pid(_):
    return os.getpid()


def exit_in_worker(x):
    if x == 1:
        os._exit(3)
    return x


class TestProcessExecutor:
    def test_order_preserved(self):
        with ProcessExecutor(2) as ex:
            assert ex.map(square, [4, 3]) == [16, 9]

    def test_parallelism_reported(self):
        with ProcessExecutor(3) as ex:
            assert ex.parallelism == 3

    def test_no_pool_before_first_map(self):
        with ProcessExecutor(2):
            assert multiprocessing.active_children() == []

    def test_maps_share_one_pool(self):
        with ProcessExecutor(2) as ex:
            first = set(ex.map(worker_pid, range(8)))
            second = set(ex.map(worker_pid, range(8)))
        assert os.getpid() not in first
        assert second <= first

    def test_pool_rebuilt_after_worker_dies(self):
        with ProcessExecutor(2) as ex:
            with pytest.raises(BrokenProcessPool):
                ex.map(exit_in_worker, [0, 1, 2])
            assert ex.map(square, [2, 3]) == [4, 9]

    def test_close_is_idempotent_and_reaps_workers(self):
        ex = ProcessExecutor(2)
        assert ex.map(square, [1, 2]) == [1, 4]
        assert multiprocessing.active_children()
        ex.close()
        ex.close()
        assert multiprocessing.active_children() == []
        # A closed executor starts a fresh pool if used again.
        assert ex.map(square, [3, 4]) == [9, 16]
        ex.close()
        assert multiprocessing.active_children() == []


class TestClose:
    @pytest.mark.parametrize("kind", ["serial", "thread"])
    def test_in_process_kinds_close_as_no_op(self, kind):
        with make_executor(kind, 2) as ex:
            assert ex.map(square, [2, 3]) == [4, 9]
        ex.close()
        assert ex.map(square, [5]) == [25]

    def test_owned_executor_closes_only_what_it_built(self):
        with owned_executor("process", 2) as built:
            assert built.map(square, [1, 2]) == [1, 4]
        assert multiprocessing.active_children() == []
        with ProcessExecutor(2) as mine:
            with owned_executor(mine) as ex:
                assert ex is mine
                ex.map(worker_pid, [0, 1])
            assert multiprocessing.active_children()  # still the owner's
        assert multiprocessing.active_children() == []


class TestFactory:
    def test_kinds(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("thread", 2), ThreadExecutor)
        with make_executor("process", 2) as ex:
            assert isinstance(ex, ProcessExecutor)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_executor("gpu")


def boom_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x * 10


def raise_repro(x):
    from repro.errors import BackrefError

    raise BackrefError("too far", bit_offset=x, chunk_index=7, stage="pass1")


class TestMapOutcomes:
    @pytest.mark.parametrize("kind", ["serial", "thread", "process"])
    def test_captures_per_item_errors(self, kind):
        with make_executor(kind, 2) as ex:
            outcomes = ex.map_outcomes(boom_on_three, [1, 3, 5])
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert outcomes[0].ok and outcomes[0].value == 10
        assert not outcomes[1].ok
        assert isinstance(outcomes[1].error, ValueError)
        assert outcomes[2].ok and outcomes[2].value == 50

    def test_all_ok(self):
        outcomes = SerialExecutor().map_outcomes(square, [2, 4])
        assert all(o.ok for o in outcomes)
        assert [o.value for o in outcomes] == [4, 16]

    def test_empty(self):
        assert SerialExecutor().map_outcomes(square, []) == []

    def test_repro_error_context_survives_process_boundary(self):
        with ProcessExecutor(2) as ex:
            outcomes = ex.map_outcomes(raise_repro, [11, 22])
        for o, bit in zip(outcomes, [11, 22]):
            assert not o.ok
            assert o.error.bit_offset == bit
            assert o.error.chunk_index == 7
            assert o.error.stage == "pass1"
