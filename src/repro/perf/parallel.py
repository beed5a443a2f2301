"""Process-pool fan-out with deterministic result ordering.

:class:`ParallelEvaluator` runs a picklable task function over items
on one persistent ``concurrent.futures.ProcessPoolExecutor``.  There is
a single pool path: :meth:`ParallelEvaluator.submit` ships one task to
the pool (the long-lived service, :mod:`repro.serve`, pre-forks it with
:meth:`start_pool`), and :meth:`ParallelEvaluator.map` submits every
item to the same pool, collects the results **in item order regardless
of completion order** and closes the pool again — a parallel ``map`` is
a drop-in replacement for the serial loop: same results, same order,
different wall-clock.

Fallbacks keep the evaluator safe everywhere:

* ``map`` with ``jobs=1`` (the default) or a single item runs the plain
  serial loop in-process — no pool, no pickling;
* if the pool cannot be created, a task cannot be pickled or a worker
  dies (sandboxed environments, exotic payloads, crashes), ``map``
  falls back to the serial loop for that call and ``submit`` to a small
  in-process thread pool.  Pool failures are *budgeted*, not latched:
  the next call forks a fresh pool, and only
  :data:`MAX_POOL_FAILURES` consecutive failures degrade the evaluator
  to in-process execution for good.  A pooled success resets the
  budget.

On POSIX the pool uses the ``fork`` start method when available: workers
inherit the parent's hash seed (identical set/dict iteration order ⇒
identical schedules) and its warm in-memory caches.

Pool statistics are mirrored into the ``repro.obs`` metrics registry:
``perf.pool.tasks`` (counter: ``map`` and ``submit`` items, once each),
``perf.pool.workers`` (gauge).

**Cross-process folding.**  Every process task runs through
:func:`_obs_task`: the worker runs it under *fresh* per-task obs sinks
(when the parent has an enabled tracer, metrics registry or run
ledger) and snapshots its process-wide schedule caches around it, then
ships the raw sink state and the cache counter deltas back with the
result.  :meth:`ParallelEvaluator.fold_obs` adds them to the parent in
submission order: counters add, histograms merge bucket-exactly, trace
records land on per-worker pid lanes of the parent tracer (one merged
Chrome trace), ledger records are re-sequenced into the parent ledger,
and cache hits/misses/evictions/corrupt add to the parent's
:func:`~repro.perf.cache.shared_cache` of the same directory.  Totals
therefore equal the serial run's (see ``tests/perf/test_obs_merge.py``);
only ``perf.pool.*`` reflects the actual pool.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro import faults
from repro.obs import get_metrics, get_tracer
from repro.obs.ledger import RunLedger, get_ledger, set_ledger
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.obs.trace import Tracer, set_tracer
from repro.perf.cache import (
    add_shared_cache_counts,
    shared_cache_counts,
    shared_cache_deltas,
)

__all__ = ["MAX_POOL_FAILURES", "ParallelEvaluator", "resolve_jobs"]

#: consecutive pool failures tolerated before the evaluator degrades to
#: in-process execution for good (a pooled success resets the count)
MAX_POOL_FAILURES = 3


def _obs_task(payload: Tuple) -> Tuple[Any, dict]:
    """Run one task in a pool worker; returns ``(result, obs)``.

    The worker process forked from the parent *inherits* the parent's
    enabled registries — recording into them would strand the data in
    the worker (and double-count the inherited baseline if shipped
    wholesale).  Fresh sinks capture exactly this task's contribution,
    and the shared-cache counters are diffed around the task; ``obs``
    carries both back for the parent's :meth:`ParallelEvaluator.fold_obs`.

    ``payload`` carries a decided fault action (the *parent* draws from
    the armed :class:`~repro.faults.FaultPlan` at submit time so
    injection accounting stays in one process); the worker suffers it
    before the task runs — a crash/hang therefore never leaves a
    half-recorded obs dump behind.
    """
    fn, item, want_metrics, want_trace, want_ledger, epoch_ns, fault = payload
    faults.perform_task_fault(fault)
    metrics = MetricsRegistry() if want_metrics else None
    tracer = Tracer(epoch_ns=epoch_ns) if want_trace else None
    ledger = RunLedger() if want_ledger else None
    prev_metrics = set_metrics(metrics) if want_metrics else None
    prev_tracer = set_tracer(tracer) if want_trace else None
    prev_ledger = set_ledger(ledger) if want_ledger else None
    before = shared_cache_counts()
    try:
        result = fn(item)
    finally:
        if want_metrics:
            set_metrics(prev_metrics)
        if want_trace:
            set_tracer(prev_tracer)
        if want_ledger:
            set_ledger(prev_ledger)
    obs = {
        "pid": os.getpid(),
        "metrics": metrics.dump() if metrics is not None else None,
        "trace": tracer.records if tracer is not None else None,
        "ledger": ledger.records if ledger is not None else None,
        "cache": shared_cache_deltas(before),
    }
    return result, obs


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` = all cores."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _warm_task(_item) -> int:
    """No-op warm-up task: forces the pool to fork its workers."""
    return os.getpid()


#: exceptions that mean "the pool (not the task) is unusable"
_POOL_ERRORS = (
    OSError,
    ImportError,
    PermissionError,
    pickle.PicklingError,
    # CPython reports unpicklable payloads as AttributeError
    # ("Can't pickle local object ...") or TypeError, not only
    # PicklingError; a task that genuinely raises one of these
    # re-raises it from the serial fallback, so catching them costs
    # at most a redundant serial pass
    AttributeError,
    TypeError,
    BrokenProcessPool,
)


class ParallelEvaluator:
    """Ordered map and single-task submit over one process pool."""

    def __init__(self, jobs: Optional[int] = 1) -> None:
        self.jobs = resolve_jobs(jobs)
        self._pool_failures = 0
        #: the one worker pool behind :meth:`submit` and :meth:`map`
        self._persistent: Optional[ProcessPoolExecutor] = None
        self._thread_fallback: Optional[ThreadPoolExecutor] = None

    # -- pool-health accounting ------------------------------------------

    @property
    def pool_broken(self) -> bool:
        """Whether the failure budget is exhausted (in-process from now on)."""
        return self._pool_failures >= MAX_POOL_FAILURES

    def record_pool_failure(self, exc: Optional[BaseException] = None) -> None:
        """Count one pool failure and discard the pool.

        Callers that observe a :class:`BrokenProcessPool` on a future
        returned by :meth:`submit` report it here; the next
        :meth:`submit`/:meth:`map` re-creates the pool unless the
        failure budget is exhausted.
        """
        self._pool_failures += 1
        self._discard_persistent()
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc(
                "perf.pool.fallbacks",
                reason=type(exc).__name__ if exc is not None else "reported",
            )

    def note_pool_success(self) -> None:
        """A pooled task completed: forgive past consecutive failures."""
        self._pool_failures = 0

    # -- internals -------------------------------------------------------

    @staticmethod
    def _mp_context():
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            return multiprocessing.get_context()

    def _discard_persistent(self, wait: bool = False) -> None:
        pool, self._persistent = self._persistent, None
        if pool is not None:
            # a waiting shutdown must not cancel: CPython's cancel pass
            # swaps the manager's pending-item dict while the feeder
            # thread still fails unpicklable items on the old one, so
            # the manager would wait forever for an item it never sees
            pool.shutdown(wait=wait, cancel_futures=not wait)

    def _ensure_persistent(self, workers: int) -> ProcessPoolExecutor:
        if self._persistent is None:
            self._persistent = ProcessPoolExecutor(
                max_workers=workers, mp_context=self._mp_context()
            )
            metrics = get_metrics()
            if metrics.enabled and self._pool_failures:
                metrics.inc("perf.pool.recreations")
        return self._persistent

    def _submit_process(
        self, fn: Callable[[Any], Any], item: Any, fault, workers: int
    ) -> "Future":
        """Ship one task and its decided fault to the pool via
        :func:`_obs_task`.

        Raises a :data:`_POOL_ERRORS` exception when the pool cannot
        be created or refuses the task.
        """
        metrics = get_metrics()
        tracer = get_tracer()
        ledger = get_ledger()
        epoch = tracer.epoch_ns if tracer.enabled else None
        return self._ensure_persistent(workers).submit(
            _obs_task,
            (
                fn,
                item,
                metrics.enabled,
                tracer.enabled,
                ledger.enabled,
                epoch,
                fault,
            ),
        )

    # -- public ----------------------------------------------------------

    def map(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> List[Any]:
        """``[fn(item) for item in items]`` — possibly across processes.

        With ``jobs > 1`` every item goes to the pool, results come back
        in submission order, each worker's obs state is folded, and the
        pool is closed before returning.  ``fn`` must be a module-level
        function and every item/result picklable then.  Exceptions
        raised by ``fn`` propagate to the caller in both modes.
        """
        items = list(items)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("perf.pool.tasks", len(items))
        if self.jobs > 1 and len(items) > 1 and not self.pool_broken:
            workers = min(self.jobs, len(items))
            try:
                futures = [
                    self._submit_process(
                        fn, item, faults.decide("pool.task"), workers
                    )
                    for item in items
                ]
                # collect by submission index: deterministic ordering
                # no matter which worker finishes first
                outcomes = [f.result() for f in futures]
            except _POOL_ERRORS as exc:
                # pool unavailable (sandbox, fd limits, worker crash):
                # degrade this call to serial and count the failure
                self._discard_persistent(wait=True)
                self.record_pool_failure(exc)
            else:
                self.note_pool_success()
                if metrics.enabled:
                    metrics.set_max("perf.pool.workers", workers)
                # fold in submission order: the merged sinks end up
                # identical to what the serial loop would have recorded
                results = []
                for result, obs in outcomes:
                    results.append(result)
                    self.fold_obs(obs)
                return results
            finally:
                self._discard_persistent(wait=True)
        if metrics.enabled:
            metrics.set_max("perf.pool.workers", 1)
        return [fn(item) for item in items]

    def fold_obs(self, obs: Optional[dict]) -> None:
        """Fold one worker's obs dumps and cache counters into the parent.

        ``obs`` is the second element of an :func:`_obs_task` result
        (``None`` when the task ran in-process and recorded into the
        parent directly).  Counters add, histograms merge
        bucket-exactly, trace records land on the worker's pid lane,
        ledger records are re-sequenced, and schedule-cache counters
        add to the parent's shared cache of the same directory.
        """
        if obs is None:
            return
        if obs["metrics"] is not None:
            get_metrics().merge(obs["metrics"])
        if obs["trace"] is not None:
            get_tracer().add_foreign_records(
                obs["trace"],
                pid=obs["pid"],
                label=f"worker-{obs['pid']}",
            )
        if obs["ledger"] is not None:
            get_ledger().extend(obs["ledger"])
        add_shared_cache_counts(obs["cache"])

    # -- persistent pool (server mode) -----------------------------------

    def start_pool(self) -> int:
        """Pre-fork the persistent worker pool; returns its width.

        Submits one warm-up task per worker so the fork happens *now*
        (workers inherit the parent's imports and warm in-memory
        caches) instead of on the first real request.  Unlike
        :meth:`map` — where ``jobs == 1`` means the serial loop — a
        single-worker *pool* is real here: server mode needs an
        isolated, killable worker process even at width 1.  Returns 0
        only when the failure budget is already exhausted —
        :meth:`submit` then runs tasks on a small thread pool instead.
        """
        if self.pool_broken:
            return 0
        try:
            for f in [
                self._submit_process(_warm_task, i, None, self.jobs)
                for i in range(self.jobs)
            ]:
                f.result()
        except _POOL_ERRORS as exc:
            self.record_pool_failure(exc)
            return 0
        self.note_pool_success()
        metrics = get_metrics()
        if metrics.enabled:
            metrics.set_max("perf.pool.workers", self.jobs)
        return self.jobs

    def _threads(self) -> ThreadPoolExecutor:
        if self._thread_fallback is None:
            self._thread_fallback = ThreadPoolExecutor(
                max_workers=max(1, min(self.jobs, 4)),
                thread_name_prefix="repro-serial",
            )
        return self._thread_fallback

    def submit(self, fn: Callable[[Any], Any], item: Any) -> "Future":
        """Ship one task to the persistent pool; ``Future`` of
        ``(result, obs)``.

        ``obs`` is the worker's dump to pass to :meth:`fold_obs`
        (``None`` when the task ran in-process, where it already
        recorded into the parent sinks directly).  When the pool is
        unavailable the task runs on a small thread pool instead, so
        callers in an event loop never block.  A worker crash surfaces
        as :class:`BrokenProcessPool` from the future — report it via
        :meth:`record_pool_failure` and resubmit; the pool is then
        re-created within the failure budget.
        """
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("perf.pool.tasks")
        # the parent draws the task's fault here (deterministic per-site
        # stream, accounted in this process) and ships the action along
        fault = faults.decide("pool.task")
        # note: jobs == 1 still uses a real (single-process) pool here —
        # submit() is the server path, where worker isolation and
        # killability matter more than fork overhead
        if not self.pool_broken:
            try:
                return self._submit_process(fn, item, fault, self.jobs)
            except _POOL_ERRORS as exc:
                self.record_pool_failure(exc)

        def _inline() -> Tuple[Any, None]:
            faults.perform_task_fault(fault)
            return fn(item), None

        return self._threads().submit(_inline)

    def kill_hung_workers(self) -> int:
        """SIGKILL the persistent pool's workers; returns the count.

        A worker stuck in an endless task ignores a polite shutdown —
        the whole pool is discarded and its processes killed so the
        next :meth:`submit` starts from a fresh fork.  Pending futures
        on the killed pool complete with :class:`BrokenProcessPool`.
        """
        pool, self._persistent = self._persistent, None
        if pool is None:
            return 0
        procs = list(getattr(pool, "_processes", {}).values())
        for proc in procs:
            try:
                proc.kill()
            except (OSError, AttributeError):  # already gone
                pass
        pool.shutdown(wait=False, cancel_futures=True)
        metrics = get_metrics()
        if metrics.enabled and procs:
            metrics.inc("perf.pool.worker_kills", len(procs))
        return len(procs)

    def close(self) -> None:
        """Shut down the persistent executors (idempotent)."""
        self._discard_persistent()
        threads, self._thread_fallback = self._thread_fallback, None
        if threads is not None:
            threads.shutdown(wait=False)
