"""Cross-process observability: ``--jobs > 1`` folds worker obs state.

The tentpole invariants: a parallel run's merged metrics equal the
serial run's (except the ``perf.pool.workers`` gauge), the merged
Chrome trace is one well-formed JSON file with per-worker pid lanes,
and ledger records come back in submission order.  Every test tolerates
the serial fallback (sandboxes without a usable process pool) by
checking the ``perf.pool.workers`` gauge before asserting pool-only
properties.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.arch.library import mesh_composition
from repro.kernels import gcd
from repro.obs.ledger import RunLedger, set_ledger
from repro.perf.parallel import ParallelEvaluator
from repro.sim.invocation import invoke_kernel

#: small co-prime-ish input pairs so each task does distinct real work
ITEMS = [(1071, 462), (252, 105), (640, 480), (97, 13)]

_MESH4 = None


def _task(item):
    """Module-level (picklable) task: full pipeline on one input pair."""
    global _MESH4
    if _MESH4 is None:
        _MESH4 = mesh_composition(4)
    a, b = item
    result = invoke_kernel(
        gcd.build_kernel(), _MESH4, {"a": a, "b": b}
    )
    return result.results["a"]


EXPECTED = [21, 21, 160, 1]


@pytest.fixture(autouse=True)
def _no_ledger_leak():
    previous = set_ledger(None)
    yield
    set_ledger(previous)


def _run(jobs):
    """One observed map; returns (pooled, results, session, ledger).

    ``pooled`` says whether the map ran on worker processes (the
    ``perf.pool.workers`` gauge exceeds 1 only then).
    """
    ledger = RunLedger()
    set_ledger(ledger)
    try:
        with obs.observe() as session:
            results = ParallelEvaluator(jobs=jobs).map(_task, list(ITEMS))
    finally:
        set_ledger(None)
    pooled = session.metrics.snapshot()["gauges"]["perf.pool.workers"] > 1
    return pooled, results, session, ledger


class TestParallelObsMerge:
    @pytest.fixture(scope="class")
    def runs(self):
        """Serial and parallel observed runs over the same items."""
        serial = _run(jobs=1)
        parallel = _run(jobs=3)
        return serial, parallel

    def test_results_identical(self, runs):
        (_, serial_results, _, _), (_, par_results, _, _) = runs
        assert serial_results == EXPECTED
        assert par_results == EXPECTED

    def test_counter_totals_equal_serial(self, runs):
        (_, _, s_session, _), (_, _, p_session, _) = runs
        s_counters = s_session.metrics.snapshot()["counters"]
        p_counters = p_session.metrics.snapshot()["counters"]
        assert s_counters == p_counters
        # the one intended difference is the workers gauge
        s_gauges = s_session.metrics.snapshot()["gauges"]
        assert s_gauges["perf.pool.workers"] == 1

    def test_histogram_totals_equal_serial(self, runs):
        (_, _, s_session, _), (_, _, p_session, _) = runs
        s_hists = s_session.metrics.snapshot()["histograms"]
        p_hists = p_session.metrics.snapshot()["histograms"]
        assert set(s_hists) == set(p_hists)
        for key, s in s_hists.items():
            assert p_hists[key]["count"] == s["count"], key

    def test_ledger_folded_in_submission_order(self, runs):
        (_, _, _, s_ledger), (_, _, _, p_ledger) = runs
        s_runs = [r for r in s_ledger if r["kind"] == "pipeline.run"]
        p_runs = [r for r in p_ledger if r["kind"] == "pipeline.run"]
        assert len(s_runs) == len(ITEMS)
        assert [r["program_digest"] for r in p_runs] == [
            r["program_digest"] for r in s_runs
        ]
        assert [r["seq"] for r in p_ledger] == list(range(len(p_ledger)))

    def test_merged_trace_is_well_formed_with_pid_lanes(self, runs, tmp_path):
        _, (pooled, _, p_session, _) = runs
        path = str(tmp_path / "merged.trace.json")
        p_session.tracer.to_chrome(path)
        with open(path) as fh:
            payload = json.load(fh)  # well-formed single JSON document
        events = payload["traceEvents"]
        assert events
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        if pooled:
            worker_pids = pids - {0}
            assert worker_pids, "no per-worker pid lanes in merged trace"
            assert os.getpid() not in worker_pids
            # every lane gets a process_name metadata record
            names = {
                e["pid"]: e["args"]["name"]
                for e in events
                if e["ph"] == "M" and e["name"] == "process_name"
            }
            assert set(names) >= pids
            for pid in worker_pids:
                assert names[pid] == f"worker-{pid}"
            assert names.get(0) == "main"

    def test_worker_spans_share_parent_epoch(self, runs):
        """Merged records sit on one time axis: no span may start before
        the parent tracer's epoch."""
        _, (pooled, _, p_session, _) = runs
        if not pooled:
            pytest.skip("pool unavailable; no foreign records to check")
        for record in p_session.tracer.records:
            assert record["ts"] >= 0


class TestScheduleDeterminismUnderObs:
    def test_parallel_schedules_match_serial(self, tmp_path):
        """program digests identical serial vs parallel, obs on or off."""
        _, _, _, observed = _run(jobs=3)
        bare = ParallelEvaluator(jobs=3).map(_task, list(ITEMS))
        assert bare == EXPECTED
        digests = [
            r["program_digest"]
            for r in observed
            if r["kind"] == "pipeline.run"
        ]
        assert len(set(digests)) == 1  # same kernel+comp => same program


def _strip_pool_noise(counters):
    """Counters minus pool bookkeeping and the serving layer's own
    accounting — the keys that legitimately differ when a job had to be
    re-submitted behind the server."""
    return {
        k: v
        for k, v in counters.items()
        if not k.startswith("perf.pool.") and not k.startswith("serve.")
    }


#: response fields that must not depend on how the job was executed
_SIGNATURE = (
    "program_digest", "used_contexts", "max_rf_entries", "results",
    "run_cycles", "total_cycles", "ops_executed", "branches_taken",
    "energy", "energy_units", "heap", "correct",
)


def _signature(payload):
    return json.dumps(
        {k: payload[k] for k in _SIGNATURE}, sort_keys=True
    ).encode()


def _request(item):
    a, b = item
    return {"kernel": "gcd", "composition": "mesh4",
            "livein": {"a": a, "b": b}}


def _arm_one_hang():
    from repro import faults
    from repro.faults import FaultPlan, FaultSpec

    plan = FaultPlan(
        [FaultSpec("pool.task", "hang", rate=1.0, count=1, delay_s=8.0)],
        seed=0,
    )
    faults.arm(plan)
    return plan


class TestKillAndRespawnDeterminism:
    """A hung worker misses the server deadline and is killed, the pool
    respawns, and the re-submitted job is indistinguishable from a
    serial run — results byte-equal, folded obs totals equal (modulo
    pool and serving bookkeeping)."""

    def test_resubmitted_job_matches_serial(self, tmp_path):
        from repro import faults
        from repro.serve.client import ServeError, connect
        from repro.serve.jobs import execute_job, job_payload
        from repro.serve.server import request_to_spec, serve_in_thread

        req = _request(ITEMS[0])
        # serial ground truth with observed sinks (its own cold cache)
        spec = request_to_spec(req, cache_dir=str(tmp_path / "serial"))
        with obs.observe() as serial_session:
            serial = job_payload(execute_job(spec))
        serial_counters = serial_session.metrics.snapshot()["counters"]

        plan = _arm_one_hang()
        try:
            with obs.observe() as pooled_session:
                with serve_in_thread(
                    workers=1, deadline_s=0.8,
                    cache_dir=str(tmp_path / "served"),
                ) as handle:
                    if handle.server.evaluator.pool_broken:
                        pytest.skip("pool unavailable in this sandbox")
                    with connect(handle.address) as client:
                        with pytest.raises(ServeError) as err:
                            client.run(**req)
                        assert err.value.code == "DEADLINE"
                        # the fault was one-shot: the resubmission runs
                        # clean on a freshly forked pool
                        served = client.run(**req)["result"]
        finally:
            faults.disarm()

        assert served["results"]["a"] == EXPECTED[0]
        assert _signature(served) == _signature(serial)
        assert len(plan.fired) == 1
        pooled_counters = pooled_session.metrics.snapshot()["counters"]
        assert _strip_pool_noise(pooled_counters) == _strip_pool_noise(
            serial_counters
        )

    def test_kill_hung_workers_reports_the_kill(self):
        from repro import faults
        from repro.serve.client import ServeError, connect
        from repro.serve.server import serve_in_thread

        req = _request(ITEMS[1])
        _arm_one_hang()
        try:
            with serve_in_thread(workers=1, deadline_s=0.8) as handle:
                with connect(handle.address) as client:
                    with pytest.raises(ServeError, match="workers killed"):
                        client.run(**req)
                    # respawned pool serves the next submission
                    result = client.run(**req)["result"]
                    stats = client.stats()
        finally:
            faults.disarm()
        assert result["results"]["a"] == EXPECTED[1]
        assert stats["deadlines"] == 1
        assert stats["worker_kills"] >= 1
