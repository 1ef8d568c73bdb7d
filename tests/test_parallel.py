"""deterministic_map over forked worker processes: order, errors, cleanup
and the bound on the number of workers."""

import os
import time

import pytest

from heatlift.errors import ParameterError
from heatlift.ldp import tail_probability
from heatlift.parallel import WorkerTraceback, deterministic_map, worker_count, worker_runs
from heatlift.sampler import SpectralConfig


def assert_no_children():
    # Every child the map forked has been reaped.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerCount:
    @pytest.mark.parametrize(
        "threads, items, cpus, workers",
        [(1, 5, 8, 1), (2, 5, 8, 2), (8, 5, 8, 5), (64, 100, 2, 2), (64, 0, 2, 1)],
    )
    def test_smallest_of_threads_items_and_cpus(
        self, usable_cpus, threads, items, cpus, workers
    ):
        usable_cpus(cpus)
        assert worker_count(threads, items) == workers

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ParameterError, match=f"threads >= 1 violated: threads={threads}"):
            worker_count(threads, 4)

    @pytest.mark.parametrize(
        "n, threads, cpus, runs",
        [
            (10, 3, 3, [(0, 4), (4, 8), (8, 10)]),
            (5, 4, 8, [(0, 2), (2, 4), (4, 5)]),
            (5, 1, 8, [(0, 5)]),
            (3, 64, 2, [(0, 2), (2, 3)]),
            (0, 2, 2, []),
        ],
    )
    def test_worker_runs_are_the_maps_runs(self, usable_cpus, n, threads, cpus, runs):
        usable_cpus(cpus)
        assert [(r.start, r.stop) for r in worker_runs(n, threads)] == runs
        pids = deterministic_map(lambda x: os.getpid(), range(n), threads)
        assert [len(set(pids[lo:hi])) for lo, hi in runs] == [1] * len(runs)
        assert len(set(pids)) == len(runs)

    def test_sequential_without_fork(self, monkeypatch, usable_cpus):
        usable_cpus(8)
        monkeypatch.delattr(os, "fork")
        assert worker_count(8, 8) == 1
        assert deterministic_map(lambda x: os.getpid(), range(4), threads=4) == [
            os.getpid()
        ] * 4


class TestDeterministicMap:
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_results_in_item_order(self, usable_cpus, threads):
        # 10 items run as [4, 4, 2] on 3 workers; the caller maps the first
        # run itself and each further run is one child.
        usable_cpus(3)
        got = deterministic_map(lambda x: (x, x * x, os.getpid()), range(10), threads)
        assert [(x, sq) for x, sq, _ in got] == [(x, x * x) for x in range(10)]
        pids = [pid for _, _, pid in got]
        assert pids[0] == os.getpid()
        assert len(set(pids)) == threads
        assert_no_children()

    def test_child_error_keeps_its_type(self, usable_cpus):
        usable_cpus(2)

        def fail_on_one(x):
            if x == 1:
                raise ParameterError(f"bad item {x} in pid {os.getpid()}")
            return x

        with pytest.raises(ParameterError, match="bad item 1") as info:
            deterministic_map(fail_on_one, [0, 1], threads=2)
        assert f"pid {os.getpid()}" not in str(info.value)
        assert isinstance(info.value.__cause__, WorkerTraceback)
        assert "fail_on_one" in str(info.value.__cause__)
        assert_no_children()

    def test_first_error_in_item_order(self, usable_cpus):
        # Item 2 fails first in time; item 1's error comes first in order.
        usable_cpus(3)

        def fail(x):
            if x == 1:
                time.sleep(0.2)
                raise FloatingPointError("item 1")
            if x == 2:
                raise ParameterError("item 2")
            return x

        with pytest.raises(FloatingPointError, match="item 1"):
            deterministic_map(fail, [0, 1, 2], threads=3)
        assert_no_children()

    def test_exception_that_does_not_pickle(self, usable_cpus):
        usable_cpus(2)

        class LocalError(Exception):
            pass

        def fail(x):
            if x == 1:
                raise LocalError("not importable")
            return x

        with pytest.raises(RuntimeError, match="LocalError: not importable"):
            deterministic_map(fail, [0, 1], threads=2)
        assert_no_children()

    def test_child_exit_without_result(self, usable_cpus):
        usable_cpus(2)

        def leave(x):
            if x == 1:
                os._exit(3)
            return x

        with pytest.raises(
            RuntimeError,
            match=r"worker process for item 1 exited without a result \(exit code 3\)",
        ):
            deterministic_map(leave, [0, 1], threads=2)
        assert_no_children()

    def test_caller_error_kills_children(self, usable_cpus):
        # The caller's own item raises while the child would still run for
        # a minute: the child is killed and reaped, not waited for.
        usable_cpus(2)
        parent = os.getpid()

        def slow(x):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)
            return x

        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            deterministic_map(slow, [0, 1], threads=2)
        assert time.perf_counter() - start < 30
        assert_no_children()

    def test_threads_64_forks_at_most_cpus_minus_one(self, monkeypatch):
        # The usable CPUs are the machine's own here; fork is counted in the
        # caller.
        cpus = len(os.sched_getaffinity(0))
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        cfg = SpectralConfig(
            n_modes=16, time_horizon=1.0, n_time=2, grid_level=4, dim=2, seed=0
        )
        rows = tail_probability(0.5, [1.0, 0.5], 2, 64, cfg, threads=64)
        assert len(forks) == min(cpus, 64) - 1
        assert len(forks) <= cpus - 1
        assert_no_children()
        assert rows == tail_probability(0.5, [1.0, 0.5], 2, 64, cfg, threads=1)
