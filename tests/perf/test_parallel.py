"""ParallelEvaluator unit behaviour: ordering, fallback, metrics."""

from __future__ import annotations

import os

import pytest

from repro.obs import observe
from repro.perf.parallel import (
    MAX_POOL_FAILURES,
    ParallelEvaluator,
    resolve_jobs,
)


def _square(x):
    return x * x


def _pid(_item):
    return os.getpid()


def _used_pool(evaluator, n=2):
    """Whether a map over ``n`` items ran in worker processes."""
    return os.getpid() not in evaluator.map(_pid, range(n))


def _boom(x):
    raise ValueError(f"task {x} failed")


class TestResolveJobs:
    def test_explicit_passthrough(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3

    def test_zero_and_none_mean_all_cores(self):
        cores = os.cpu_count() or 1
        assert resolve_jobs(0) == cores
        assert resolve_jobs(None) == cores


class TestSerialPath:
    def test_jobs1_maps_in_order(self):
        evaluator = ParallelEvaluator(jobs=1)
        assert evaluator.map(_square, [3, 1, 2]) == [9, 1, 4]
        assert not _used_pool(evaluator)

    def test_single_item_stays_serial(self):
        evaluator = ParallelEvaluator(jobs=4)
        assert evaluator.map(_square, [5]) == [25]
        assert evaluator.map(_pid, [0]) == [os.getpid()]

    def test_empty(self):
        assert ParallelEvaluator(jobs=4).map(_square, []) == []

    def test_task_exception_propagates(self):
        with pytest.raises(ValueError, match="task 1 failed"):
            ParallelEvaluator(jobs=1).map(_boom, [1, 2])


def _crash_if_child(parent_pid):
    if os.getpid() != parent_pid:
        os._exit(1)  # kill the pool worker; harmless in the parent
    return parent_pid


class TestPoolPath:
    def test_results_in_submission_order(self):
        evaluator = ParallelEvaluator(jobs=2)
        items = list(range(20))
        assert evaluator.map(_square, items) == [x * x for x in items]

    def test_unpicklable_fn_falls_back_to_serial(self):
        evaluator = ParallelEvaluator(jobs=2)
        # a lambda cannot be pickled by reference; the evaluator must
        # degrade to the serial loop instead of raising
        assert evaluator.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
        assert evaluator._pool_failures == 1
        assert not evaluator.pool_broken  # one failure != broken
        # a picklable map afterwards uses the pool again (and resets
        # the failure budget)
        assert _used_pool(evaluator)
        assert evaluator._pool_failures == 0
        assert evaluator._persistent is None  # map closed its pool

    def test_failure_budget_latches_serial(self):
        evaluator = ParallelEvaluator(jobs=2)
        for _ in range(MAX_POOL_FAILURES):
            assert not evaluator.pool_broken
            assert evaluator.map(lambda x: x, [1, 2]) == [1, 2]
        assert evaluator.pool_broken
        # budget exhausted: even picklable work stays serial now
        assert evaluator.map(_square, [2, 3]) == [4, 9]
        assert not _used_pool(evaluator)
        # until a pooled success is reported
        evaluator.note_pool_success()
        assert _used_pool(evaluator)

    def test_worker_crash_recovers_on_next_map(self):
        evaluator = ParallelEvaluator(jobs=2)
        parent = os.getpid()
        # the task kills its worker -> BrokenProcessPool -> serial
        # fallback re-runs it in the parent, where it is a no-op
        assert evaluator.map(_crash_if_child, [parent, parent]) == [
            parent,
            parent,
        ]
        assert evaluator._pool_failures == 1
        # the next map re-creates a fresh pool instead of latching
        assert evaluator.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert _used_pool(evaluator)
        assert evaluator._pool_failures == 0


class TestPersistentSubmit:
    def test_submit_roundtrip_and_close(self):
        evaluator = ParallelEvaluator(jobs=2)
        try:
            assert evaluator.start_pool() in (0, 2)
            futures = [evaluator.submit(_square, x) for x in (3, 4, 5)]
            assert [f.result()[0] for f in futures] == [9, 16, 25]
        finally:
            evaluator.close()

    def test_serial_submit_gets_a_real_pool(self):
        # unlike map() — where jobs == 1 means the serial loop — the
        # submit path forks a real single-process pool: server mode
        # needs an isolated, killable worker even at width 1
        evaluator = ParallelEvaluator(jobs=1)
        try:
            started = evaluator.start_pool()
            assert started in (0, 1)  # 0 only without a usable fork
            result, obs = evaluator.submit(_square, 6).result()
            assert result == 36
            if started:
                # a real worker, whose dump carries no obs sinks (no
                # session active) and no cache counters (none touched)
                assert obs["pid"] != os.getpid()
                assert obs["metrics"] is None and obs["cache"] == {}
        finally:
            evaluator.close()

    def test_submit_survives_worker_crash(self):
        evaluator = ParallelEvaluator(jobs=2)
        try:
            if evaluator.start_pool() == 0:
                pytest.skip("process pool unavailable")
            from concurrent.futures.process import BrokenProcessPool

            parent = os.getpid()
            fut = evaluator.submit(os._exit, 1)
            with pytest.raises(BrokenProcessPool):
                fut.result()
            evaluator.record_pool_failure()
            # the next submit re-creates the pool transparently
            result, _obs = evaluator.submit(_square, 7).result()
            assert result == 49
            assert os.getpid() == parent
        finally:
            evaluator.close()


class TestPoolMetrics:
    def test_task_and_worker_metrics(self):
        with observe() as session:
            evaluator = ParallelEvaluator(jobs=2)
            evaluator.map(_square, [1, 2, 3, 4])
        snap = session.metrics.snapshot()
        assert snap["counters"]["perf.pool.tasks"] == 4
        assert snap["gauges"]["perf.pool.workers"] >= 1

    def test_submit_counts_each_task_once(self):
        with observe() as session:
            evaluator = ParallelEvaluator(jobs=1)
            try:
                for x in (1, 2, 3):
                    result, obs = evaluator.submit(_square, x).result()
                    evaluator.fold_obs(obs)
            finally:
                evaluator.close()
        assert session.metrics.snapshot()["counters"]["perf.pool.tasks"] == 3
