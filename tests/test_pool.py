"""The shared worker pool (repro.sim.pool): fallback, failover, shutdown."""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import CancelledError
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.sim.pool import WorkerPool


def _square(value: int) -> int:
    return value * value


def _die(value: int) -> int:
    """Kill the worker process that runs it (a thread just computes)."""
    if threading.current_thread() is threading.main_thread():
        os._exit(86)
    return _square(value)


def _die_once(marker: str, value: int) -> int:
    """Kill the first worker process to get here; every later call works."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return _square(value)
    os._exit(86)


def _kill_on(poison: int, caller: int, value: int) -> int:
    """Kill the worker process for ``poison``; in the caller's own
    process, where ``os._exit`` would end the test run, raise instead."""
    if value != poison:
        return _square(value)
    if os.getpid() == caller:
        raise AssertionError("the killing job ran in the caller's process")
    os._exit(86)


def _process_pool(workers: int) -> WorkerPool:
    pool = WorkerPool(workers, "process")
    if pool.kind != "process":
        pool.shutdown()
        pytest.skip(f"process pool unavailable: {pool.fallback_reason}")
    return pool


class TestWorkerPool:
    def test_thread_pool_runs_in_process(self):
        pool = WorkerPool(2, "thread")
        try:
            assert [pool.submit(_square, n).result(timeout=10)
                    for n in range(5)] == [0, 1, 4, 9, 16]
            assert pool.describe() == {
                "type": "thread", "workers": 2, "children": [],
                "fallback_reason": None, "failovers": 0}
        finally:
            pool.shutdown()

    def test_workers_dying_on_every_job_fall_back_to_threads(self):
        # More workers than cores, and every process job kills its worker.
        pool = _process_pool(4)
        try:
            futures = [pool.submit(_die, n) for n in range(12)]
            assert [future.result(timeout=60) for future in futures] == \
                [n * n for n in range(12)]
            stats = pool.describe()
        finally:
            pool.shutdown()
        assert stats["type"] == "thread"
        # A rebuild after the first break (unless its job was alone), two
        # while the first job dies alone twice, then the fallback when a
        # second job dies alone.
        assert stats["failovers"] in (3, 4)
        assert "keep dying" in stats["fallback_reason"]

    def test_a_job_that_kills_its_worker_fails_alone(self):
        pool = _process_pool(2)
        try:
            futures = [pool.submit(_kill_on, 3, os.getpid(), n)
                       for n in range(6)]
            for n, future in enumerate(futures):
                if n == 3:
                    with pytest.raises(BrokenProcessPool):
                        future.result(timeout=60)
                else:
                    assert future.result(timeout=60) == n * n
            # Its retry fails the same way: it never runs in-process.
            with pytest.raises(BrokenProcessPool):
                pool.submit(_kill_on, 3, os.getpid(), 3).result(timeout=60)
            assert pool.submit(_square, 7).result(timeout=60) == 49
            stats = pool.describe()
        finally:
            pool.shutdown()
        assert stats["type"] == "process"
        assert stats["fallback_reason"] is None

    def test_one_dead_worker_rebuilds_the_process_pool(self, tmp_path):
        pool = _process_pool(4)
        try:
            marker = str(tmp_path / "died")
            futures = [pool.submit(_die_once, marker, n) for n in range(12)]
            assert [future.result(timeout=60) for future in futures] == \
                [n * n for n in range(12)]
            stats = pool.describe()
        finally:
            pool.shutdown()
        assert stats["type"] == "process"
        assert stats["failovers"] == 1
        assert stats["fallback_reason"] is None
        assert len(stats["children"]) == 4

    def test_shutdown_cancels_queued_jobs_and_refuses_new_ones(self):
        pool = WorkerPool(1, "thread")
        release = threading.Event()
        running = pool.submit(release.wait, 30)
        queued = pool.submit(_square, 3)
        pool.shutdown(wait=False)
        release.set()
        assert running.result(timeout=10) is True
        with pytest.raises(CancelledError):
            queued.result(timeout=10)
        with pytest.raises(RuntimeError):
            pool.submit(_square, 4)

    def test_cancelling_a_queued_job_keeps_it_from_running(self):
        pool = WorkerPool(1, "thread")
        release = threading.Event()
        ran = []
        try:
            blocker = pool.submit(release.wait, 30)
            queued = pool.submit(ran.append, 1)
            assert queued.cancel()
            release.set()
            blocker.result(timeout=10)
            pool.submit(_square, 0).result(timeout=10)  # drains the queue
        finally:
            pool.shutdown()
        assert ran == []

    def test_shutdown_reaps_every_child(self):
        pool = _process_pool(2)
        children = pool.describe()["children"]
        pool.shutdown()
        deadline = time.monotonic() + 15.0
        for pid in children:
            while True:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, f"child {pid} survived"
                time.sleep(0.05)
