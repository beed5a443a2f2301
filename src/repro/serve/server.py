"""Asyncio front door: scheduling-as-a-service over a JSONL protocol.

:class:`ScheduleServer` accepts kernel+composition jobs over a local
unix socket (or TCP on localhost), one JSON object per line, and
answers with JSON lines.  The request path is:

1. **parse** the request into a content-addressed
   :class:`~repro.serve.jobs.JobSpec`;
2. **dedupe** — the spec fingerprint is looked up in the bounded
   result memo (*completed*-request dedupe) and the in-flight table
   (*single-flight*: N concurrent identical requests cost one
   schedule — followers await the leader's future);
3. **execute** — the leader submits :func:`~repro.serve.jobs.execute_job`
   to the warm, pre-forked worker pool
   (:meth:`~repro.perf.parallel.ParallelEvaluator.submit`); workers
   share the on-disk schedule-cache artifact store, so even distinct
   connections re-asking a previously scheduled problem skip
   scheduling;
4. **stream** — each ``run`` request receives status events
   (``queued`` → ``running``) before its final response; every stage
   lands in ``serve.*`` metrics and the run ledger.

Served results are byte-identical to direct pipeline runs: the
response carries the ``program_digest`` plus the full RunResult
signature, asserted by ``tests/serve/test_differential.py``.

The serving path is *hardened* (docs/robustness.md): per-job
deadlines detect hung workers, kill them and respawn the pool;
``max_queue`` admission control sheds load with a structured
``SERVER_BUSY`` response instead of buffering without bound; shutdown
drains gracefully (stop accepting, finish in-flight, flush the
ledger); and every failure carries one of four taxonomy codes —
``RETRYABLE`` / ``FATAL`` / ``SHED`` / ``DEADLINE`` — so clients can
retry exactly the failures worth retrying.  The deterministic fault
plane (:mod:`repro.faults`) threads through this stack; the seeded
chaos campaign (``python -m repro.faults --campaign``) asserts the
invariants under injected crashes, hangs, corruption and dropped
connections.

See docs/serving.md for the wire protocol and SLO metric table.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, Optional, Tuple

from repro import faults
from repro.obs import get_metrics
from repro.obs.ledger import get_ledger
from repro.obs.metrics import Histogram
from repro.perf.cache import shared_cache
from repro.perf.parallel import ParallelEvaluator
from repro.sched.strategy import (
    DEFAULT_SCHEDULER_MODE,
    validate_scheduler_mode,
)
from repro.serve.jobs import JobSpec, execute_job, job_payload
from repro.sim.machine import DEFAULT_MAX_CYCLES

__all__ = [
    "ScheduleServer",
    "PROTOCOL_VERSION",
    "ERROR_CODES",
    "ServeFailure",
    "ShedError",
    "DeadlineError",
    "RetryableError",
    "request_to_spec",
    "serve_in_thread",
]

#: bump when the request/response envelope changes shape
#: (2: structured error taxonomy — ``code``/``retryable`` on failures)
PROTOCOL_VERSION = 2

#: ops a request may carry (``run`` is the default)
_OPS = ("run", "ping", "stats", "shutdown")

#: the error taxonomy every failure response is classified under
ERROR_CODES = ("RETRYABLE", "FATAL", "SHED", "DEADLINE")


class ServeFailure(Exception):
    """A request failure with a wire-taxonomy classification."""

    code = "FATAL"
    retryable = False


class RetryableError(ServeFailure):
    """Transient infrastructure failure: same request may succeed."""

    code = "RETRYABLE"
    retryable = True


class ShedError(ServeFailure):
    """Admission control refused the request (queue full / draining)."""

    code = "SHED"
    retryable = True


class DeadlineError(ServeFailure):
    """The job missed its deadline; its workers were killed."""

    code = "DEADLINE"
    retryable = False


def resolve_composition(spec: str):
    """A composition from a library name or a JSON file path.

    Same grammar as the ``repro.obs``/``repro.verify`` CLIs, but
    raising :class:`ValueError` (a protocol error, not a process
    exit) for unknown names.
    """
    try:
        from repro.obs.__main__ import resolve_composition as _resolve

        return _resolve(spec)
    except SystemExit as exc:
        raise ValueError(str(exc)) from None


def request_to_spec(
    req: Dict[str, Any],
    *,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    cache_dir: Optional[str] = None,
    cached: bool = True,
) -> JobSpec:
    """Parse one ``run`` request body into a :class:`JobSpec`.

    Raises :class:`ValueError` on malformed requests (unknown fields
    are ignored; unknown kernels/compositions surface from the
    workload/composition registries at resolve time).
    """
    kernel = req.get("kernel")
    if not isinstance(kernel, str) or not kernel:
        raise ValueError("request needs a 'kernel' name")
    comp_spec = req.get("composition")
    if not isinstance(comp_spec, str) or not comp_spec:
        raise ValueError("request needs a 'composition' name")
    comp = resolve_composition(comp_spec)
    params = req.get("params") or {}
    if not isinstance(params, dict):
        raise ValueError("'params' must be an object")
    livein = req.get("livein")
    if livein is not None and not isinstance(livein, dict):
        raise ValueError("'livein' must be an object")
    arrays = req.get("arrays")
    if arrays is not None and not isinstance(arrays, dict):
        raise ValueError("'arrays' must be an object")
    scheduler_mode = str(req.get("scheduler_mode") or DEFAULT_SCHEDULER_MODE)
    try:
        validate_scheduler_mode(scheduler_mode)
    except ValueError as exc:
        raise ValueError(str(exc)) from None
    return JobSpec(
        workload=kernel,
        composition=comp,
        label=str(req.get("label") or f"{kernel} on {comp.name}"),
        params=tuple(sorted(params.items())),
        livein=JobSpec.freeze_livein(livein),
        arrays=JobSpec.freeze_arrays(arrays),
        max_cycles=int(req.get("max_cycles") or max_cycles),
        scheduler_mode=scheduler_mode,
        cached=cached,
        cache_dir=cache_dir,
        ledger_kind="serve.job",
    )


class ScheduleServer:
    """Long-lived multi-tenant scheduling service.

    ``workers >= 1`` executes jobs on a warm pre-forked process pool
    (with automatic re-creation after a worker crash and a thread
    fallback in pool-hostile sandboxes); ``workers == 0`` runs jobs on
    an in-process thread pool — same results, no fork.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        cache_dir: Optional[str] = None,
        cache_max_bytes: Optional[int] = None,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        result_memo: int = 4096,
        deadline_s: Optional[float] = None,
        max_queue: Optional[int] = None,
        drain_timeout: float = 30.0,
    ) -> None:
        self.workers = workers
        self.cache_dir = cache_dir
        self.cache_max_bytes = cache_max_bytes
        self.max_cycles = max_cycles
        #: default per-job wall-clock budget (``None`` = unbounded);
        #: requests may tighten it with a ``deadline_ms`` field
        self.deadline_s = deadline_s
        #: admission bound on concurrently *executing* distinct jobs
        #: (dedupe followers ride for free); ``None`` = unbounded
        self.max_queue = max_queue
        self.drain_timeout = drain_timeout
        #: set while draining: new work is shed, in-flight work finishes
        self._draining = False
        #: leaders + followers currently inside the run path
        self._active_runs = 0
        self.evaluator: Optional[ParallelEvaluator] = (
            ParallelEvaluator(workers) if workers >= 1 else None
        )
        self._thread_exec: Optional[ThreadPoolExecutor] = None
        #: fingerprint -> response payload (completed-request memo, LRU)
        self._results: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self.result_memo = result_memo
        #: fingerprint -> future of the in-flight leader (single-flight)
        self._inflight: Dict[str, asyncio.Future] = {}
        self.counters: Dict[str, int] = {
            "requests": 0,
            "errors": 0,
            "memo_hits": 0,
            "inflight_hits": 0,
            "schedule_computed": 0,
            "schedule_cache_hits": 0,
            "jobs_completed": 0,
            "jobs_failed": 0,
            "pool_retries": 0,
            "connections": 0,
            "shed": 0,
            "deadlines": 0,
            "worker_kills": 0,
        }
        self._latency: Dict[str, Histogram] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._closing: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.address: Optional[str] = None
        if cache_dir is not None:
            # materialise the shared artifact store (and its size
            # budget) before any worker forks
            shared_cache(cache_dir, max_bytes=cache_max_bytes)

    # -- lifecycle -------------------------------------------------------

    async def start(
        self,
        *,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> str:
        """Bind, pre-fork the worker pool, and return the bound address."""
        self._closing = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        if socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=socket_path
            )
            self.address = socket_path
        else:
            self._server = await asyncio.start_server(
                self._on_connection, host=host, port=port
            )
            bound = self._server.sockets[0].getsockname()
            self.address = f"{bound[0]}:{bound[1]}"
        if self.evaluator is not None:
            self.evaluator.start_pool()
        return self.address

    async def serve_forever(self) -> None:
        """Serve until :meth:`close` (or a ``shutdown`` request)."""
        assert self._server is not None and self._closing is not None
        async with self._server:
            await self._closing.wait()

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: stop accepting, finish in-flight, flush.

        New ``run`` requests arriving on existing connections are shed
        (``SHED``/``SERVER_BUSY: draining``) while requests already in
        flight run to completion (bounded by ``timeout``, default
        ``drain_timeout``).  A file-backed run ledger is flushed before
        teardown so completed work is durably accounted.  Returns
        ``True`` when everything in flight finished inside the budget.
        """
        self._draining = True
        if self._server is not None:
            # stop accepting new connections; handlers on accepted
            # connections keep running until close()
            self._server.close()
        budget = self.drain_timeout if timeout is None else timeout
        deadline = time.perf_counter() + budget
        while self._active_runs > 0 and time.perf_counter() < deadline:
            await asyncio.sleep(0.01)
        drained = self._active_runs == 0
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("serve.drain", clean=drained)
        ledger = get_ledger()
        if ledger.enabled and getattr(ledger, "path", None):
            try:
                ledger.write()
            except OSError:
                pass  # best-effort flush; records stay in memory
        await self.close()
        return drained

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.evaluator is not None:
            self.evaluator.close()
        if self._thread_exec is not None:
            self._thread_exec.shutdown(wait=False)
            self._thread_exec = None
        if self._closing is not None:
            self._closing.set()

    # -- connection handling ---------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.counters["connections"] += 1
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("serve.connections")
        lock = asyncio.Lock()
        pending = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(
                    self._dispatch(line, writer, lock)
                )
                pending.add(task)
                task.add_done_callback(pending.discard)
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        except (ConnectionError, OSError):
            # the peer reset mid-conversation (a dropped client, or the
            # chaos campaign's injected drops): any in-flight jobs on
            # this connection still complete and land in the memo
            pass
        except asyncio.CancelledError:
            # server shutdown cancelled this handler; absorbing the
            # cancellation here (instead of letting it escape the
            # client_connected_cb task) keeps asyncio's stream-protocol
            # done-callback from logging it as an unhandled error
            pass
        finally:
            for task in pending:
                task.cancel()
            try:
                writer.close()
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                # During shutdown this task is cancelled while draining the
                # transport; swallowing here keeps asyncio's stream-protocol
                # done-callback from logging a spurious traceback.
                pass

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        message: Dict[str, Any],
    ) -> None:
        data = json.dumps(message, sort_keys=True) + "\n"
        async with lock:
            writer.write(data.encode("utf-8"))
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # client went away; the request still completes

    # -- request path ----------------------------------------------------

    async def _dispatch(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        t0 = time.perf_counter()
        rid: Any = None
        op = "?"
        try:
            req = json.loads(line)
            if not isinstance(req, dict):
                raise ValueError("request must be a JSON object")
            rid = req.get("id")
            op = str(req.get("op", "run"))
            self.counters["requests"] += 1
            metrics = get_metrics()
            if metrics.enabled:
                metrics.inc("serve.requests", op=op)
            if op == "ping":
                response = {"ok": True, "pong": True, "v": PROTOCOL_VERSION}
            elif op == "stats":
                response = {"ok": True, "stats": self.stats()}
            elif op == "shutdown":
                response = {"ok": True, "closing": True}
                # graceful by default: finish in-flight work first
                asyncio.get_running_loop().call_soon(
                    lambda: asyncio.ensure_future(self.drain())
                )
            elif op == "run":
                payload, meta = await self._run(req, writer, lock, rid)
                meta["seconds"] = round(time.perf_counter() - t0, 6)
                response = {"ok": True, "result": payload, "meta": meta}
            else:
                raise ValueError(
                    f"unknown op {op!r} (expected one of {_OPS})"
                )
        except ServeFailure as exc:
            response = self._error_response(
                exc, code=exc.code, retryable=exc.retryable
            )
        except (ValueError, KeyError, TypeError) as exc:
            # malformed request: deterministic, retrying cannot help
            response = self._error_response(exc, code="FATAL")
        except BrokenProcessPool as exc:
            # pool still broken after the in-path retry: transient infra
            response = self._error_response(
                exc, code="RETRYABLE", retryable=True
            )
        except Exception as exc:  # job execution blew up: report, stay up
            response = self._error_response(exc, code="FATAL")
        response["id"] = rid
        seconds = time.perf_counter() - t0
        hist = self._latency.get(op)
        if hist is None:
            hist = self._latency[op] = Histogram()
        hist.observe(seconds * 1e3)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.observe("serve.request_ms", seconds * 1e3, op=op)
        await self._send(writer, lock, response)

    def _error_response(
        self, exc: BaseException, *, code: str, retryable: bool = False
    ) -> Dict[str, Any]:
        """One classified failure envelope; counts ``serve.errors``."""
        self.counters["errors"] += 1
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc(
                "serve.errors", kind=type(exc).__name__, code=code
            )
        return {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "code": code,
            "retryable": retryable,
        }

    @staticmethod
    def _request_deadline(req: Dict[str, Any]) -> Optional[float]:
        deadline_ms = req.get("deadline_ms")
        if deadline_ms is None:
            return None
        try:
            deadline_s = float(deadline_ms) / 1e3
        except (TypeError, ValueError):
            raise ValueError("'deadline_ms' must be a number") from None
        if deadline_s <= 0:
            raise ValueError("'deadline_ms' must be positive")
        return deadline_s

    async def _run(
        self,
        req: Dict[str, Any],
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        rid: Any,
    ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        spec = request_to_spec(
            req,
            max_cycles=self.max_cycles,
            cache_dir=self.cache_dir,
            cached=True,
        )
        deadline_s = self._request_deadline(req)
        if self.deadline_s is not None:
            # a request may tighten the server budget, never loosen it
            deadline_s = (
                self.deadline_s
                if deadline_s is None
                else min(deadline_s, self.deadline_s)
            )
        self._active_runs += 1
        try:
            return await self._run_admitted(
                spec, deadline_s, writer, lock, rid
            )
        finally:
            self._active_runs -= 1

    async def _run_admitted(
        self,
        spec: JobSpec,
        deadline_s: Optional[float],
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        rid: Any,
    ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        key = spec.fingerprint()
        meta: Dict[str, Any] = {"fingerprint": key, "dedupe": "none"}
        await self._send(
            writer,
            lock,
            {"id": rid, "event": "status", "state": "queued",
             "fingerprint": key},
        )
        payload = self._memo_get(key)
        if payload is not None:
            self.counters["memo_hits"] += 1
            self._mark_dedupe(meta, "memo")
            return payload, meta
        leader_future = self._inflight.get(key)
        if leader_future is not None:
            # single-flight: ride the in-flight leader's computation
            self.counters["inflight_hits"] += 1
            self._mark_dedupe(meta, "inflight")
            payload = await asyncio.shield(leader_future)
            return payload, meta
        # admission control: only *new* work is shed — memo/in-flight
        # hits above cost no worker and always pass
        self._admit(key)
        fault = faults.decide("serve.dispatch")
        if fault is not None and fault.kind in ("slow", "hang"):
            await asyncio.sleep(fault.delay_s)
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        if get_metrics().enabled:
            get_metrics().set_max(
                "serve.inflight.peak", len(self._inflight)
            )
        try:
            await self._send(
                writer,
                lock,
                {"id": rid, "event": "status", "state": "running",
                 "fingerprint": key},
            )
            payload = await self._execute(spec, deadline_s)
        except BaseException as exc:
            self.counters["jobs_failed"] += 1
            if not future.done():
                if isinstance(exc, Exception):
                    future.set_exception(exc)
                    # a leader with no followers must not warn about
                    # never-retrieved exceptions
                    future.exception()
                else:
                    future.cancel()
            raise
        else:
            self.counters["jobs_completed"] += 1
            if payload.get("cache_hit") is False:
                self.counters["schedule_computed"] += 1
            elif payload.get("cache_hit") is True:
                self.counters["schedule_cache_hits"] += 1
            self._memo_put(key, payload)
            if not future.done():
                future.set_result(payload)
            return payload, meta
        finally:
            self._inflight.pop(key, None)

    def _admit(self, key: str) -> None:
        """Shed new work while draining or over the queue bound."""
        if self._draining:
            self.counters["shed"] += 1
            metrics = get_metrics()
            if metrics.enabled:
                metrics.inc("serve.shed", reason="draining")
            raise ShedError("SERVER_BUSY: draining, not accepting new jobs")
        if (
            self.max_queue is not None
            and len(self._inflight) >= self.max_queue
        ):
            self.counters["shed"] += 1
            metrics = get_metrics()
            if metrics.enabled:
                metrics.inc("serve.shed", reason="queue_full")
            raise ShedError(
                f"SERVER_BUSY: {len(self._inflight)} jobs in flight "
                f">= max_queue={self.max_queue}"
            )

    async def _await_pooled(self, cf, deadline_s, started):
        """One pooled attempt under the remaining deadline budget."""
        if deadline_s is None:
            return await asyncio.wrap_future(cf)
        remaining = deadline_s - (time.perf_counter() - started)
        try:
            if remaining <= 0:
                raise asyncio.TimeoutError
            return await asyncio.wait_for(
                asyncio.wrap_future(cf), timeout=remaining
            )
        except asyncio.TimeoutError:
            cf.cancel()
            # consume the eventual BrokenProcessPool of the abandoned
            # future (raised once the hung workers are killed below)
            cf.add_done_callback(lambda f: f.cancelled() or f.exception())
            killed = self.evaluator.kill_hung_workers()
            self.evaluator.record_pool_failure(
                DeadlineError("hung worker")
            )
            self.counters["deadlines"] += 1
            self.counters["worker_kills"] += killed
            metrics = get_metrics()
            if metrics.enabled:
                metrics.inc("serve.deadline")
            ledger = get_ledger()
            if ledger.enabled:
                ledger.record(
                    "serve.deadline",
                    deadline_s=deadline_s,
                    workers_killed=killed,
                )
            raise DeadlineError(
                f"job exceeded its {deadline_s:g}s deadline "
                f"({killed} hung workers killed, pool respawning)"
            ) from None

    async def _execute(
        self, spec: JobSpec, deadline_s: Optional[float] = None
    ) -> Dict[str, Any]:
        loop = asyncio.get_running_loop()
        if self.evaluator is not None:
            started = time.perf_counter()
            for attempt in (0, 1):
                cf = self.evaluator.submit(execute_job, spec)
                try:
                    result, obs = await self._await_pooled(
                        cf, deadline_s, started
                    )
                    self.evaluator.note_pool_success()
                    break
                except BrokenProcessPool as exc:
                    # worker crash mid-job: count it, re-create the
                    # pool (within the evaluator's failure budget) and
                    # retry the job once before giving up
                    self.evaluator.record_pool_failure(exc)
                    self.counters["pool_retries"] += 1
                    metrics = get_metrics()
                    if metrics.enabled:
                        metrics.inc("serve.pool.retries")
                    if attempt:
                        raise RetryableError(
                            f"worker pool broken twice running this "
                            f"job: {exc}"
                        ) from exc
            self.evaluator.fold_obs(obs)
        else:
            if self._thread_exec is None:
                self._thread_exec = ThreadPoolExecutor(
                    max_workers=2, thread_name_prefix="serve-job"
                )
            job_future = loop.run_in_executor(
                self._thread_exec, execute_job, spec
            )
            try:
                result = await (
                    job_future
                    if deadline_s is None
                    else asyncio.wait_for(job_future, timeout=deadline_s)
                )
            except asyncio.TimeoutError:
                # in-process threads cannot be killed; the job is
                # abandoned (it dies with its daemon thread) and the
                # request gets a terminal DEADLINE response
                self.counters["deadlines"] += 1
                metrics = get_metrics()
                if metrics.enabled:
                    metrics.inc("serve.deadline")
                raise DeadlineError(
                    f"job exceeded its {deadline_s:g}s deadline "
                    "(in-process executor, job abandoned)"
                ) from None
        payload = job_payload(result)
        ledger = get_ledger()
        if ledger.enabled:
            ledger.record(
                "serve.request",
                fingerprint=spec.fingerprint(),
                workload=spec.workload,
                composition=spec.composition.name,
                program_digest=result.program_digest,
                cycles=result.run_cycles,
                cache_hit=result.cache_hit,
            )
        return payload

    # -- dedupe plumbing -------------------------------------------------

    def _mark_dedupe(self, meta: Dict[str, Any], kind: str) -> None:
        meta["dedupe"] = kind
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("serve.dedupe", kind=kind)

    def _memo_get(self, key: str) -> Optional[Dict[str, Any]]:
        payload = self._results.get(key)
        if payload is not None:
            self._results.move_to_end(key)
        return payload

    def _memo_put(self, key: str, payload: Dict[str, Any]) -> None:
        self._results[key] = payload
        self._results.move_to_end(key)
        while len(self._results) > self.result_memo:
            self._results.popitem(last=False)
            metrics = get_metrics()
            if metrics.enabled:
                metrics.inc("serve.memo.evict")

    # -- introspection ---------------------------------------------------

    def run_in_loop(self, coro):
        """Schedule ``coro`` on the server's loop from another thread."""
        assert self._loop is not None
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def stats(self) -> Dict[str, Any]:
        """The ``stats`` op payload: counters, cache, latency summaries."""
        out: Dict[str, Any] = dict(self.counters)
        out["inflight"] = len(self._inflight)
        out["result_memo_entries"] = len(self._results)
        out["workers"] = self.workers
        out["protocol"] = PROTOCOL_VERSION
        out["draining"] = self._draining
        out["deadline_s"] = self.deadline_s
        out["max_queue"] = self.max_queue
        plan = faults.active()
        if plan is not None:
            out["faults"] = plan.summary()
        if self.cache_dir is not None:
            out["schedule_cache"] = shared_cache(self.cache_dir).stats()
        out["latency_ms"] = {
            op: hist.summary() for op, hist in sorted(self._latency.items())
        }
        return out


class serve_in_thread:
    """Context manager: a live server on a background thread.

    Tests and benchmarks get a bound address without managing an event
    loop::

        with serve_in_thread(workers=0) as handle:
            client = connect(handle.address)
            ...

    ``socket_path=None`` binds an ephemeral localhost TCP port.  On
    exit the server is closed and the thread joined.  The underlying
    :class:`ScheduleServer` is exposed as ``.server`` for white-box
    assertions (counters, memo size).
    """

    def __init__(
        self,
        *,
        socket_path: Optional[str] = None,
        start_timeout: float = 60.0,
        **kwargs,
    ) -> None:
        self._socket_path = socket_path
        self._start_timeout = start_timeout
        self.server = ScheduleServer(**kwargs)
        self.address: Optional[str] = None
        self._thread = None
        self._started = None

    def __enter__(self) -> "serve_in_thread":
        import threading

        self._started = threading.Event()
        failure: Dict[str, BaseException] = {}

        def _run() -> None:
            async def _serve() -> None:
                try:
                    await self.server.start(socket_path=self._socket_path)
                except BaseException as exc:  # surface bind errors
                    failure["exc"] = exc
                    return
                finally:
                    self._started.set()
                await self.server.serve_forever()

            asyncio.run(_serve())

        self._thread = threading.Thread(
            target=_run, name="repro-serve", daemon=True
        )
        self._thread.start()
        started = self._started.wait(timeout=self._start_timeout)
        if "exc" in failure:
            raise failure["exc"]
        if not started or self.server.address is None:
            # the wait() return value matters: an unset event after the
            # timeout means the thread is wedged (or never ran), and
            # the old code fell through to a misleading address check
            raise RuntimeError(
                "server thread failed to start within "
                f"{self._start_timeout:g}s"
            )
        self.address = self.server.address
        return self

    def __exit__(self, *exc) -> None:
        coro = self.server.close()
        try:
            self.server.run_in_loop(coro).result(timeout=30)
        except RuntimeError:
            # the loop already exited (e.g. a shutdown request beat us)
            coro.close()
        self._thread.join(timeout=30)
