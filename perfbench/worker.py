"""One fresh benchmark process: set a workload up, then measure it.

``perfbench/run.py`` starts this module from the root of a checkout::

    python -m perfbench.worker --workload NAME --seed N --work-dir DIR --setup-only
    python -m perfbench.worker --workload NAME --seed N --work-dir DIR \
        --seconds S --trace 0|1 [--spans FILE]

It prints ``ready`` once set-up (imports, inputs, and for
``serve-cold`` a server answering a ping) is done, so the parent can
time set-up from the start of the process.  In measuring mode it then
repeats the workload's fixed work while the next repetition still fits
in ``--seconds`` (at least once) and prints one JSON object: the
end-to-end metrics with ``--trace 0``; with ``--trace 1`` every other
repetition is traced and the per-layer metrics are reported.

Times are scaled to a host of fixed speed by the reference loop of
:mod:`perfbench.reference`, which runs between operations.  ``wall_s``
is the median over the repetitions of their scaled total time, and
``req_p50_ms``/``req_p95_ms`` are percentiles over per-operation times
that split ``wall_s`` by each operation's median share of its
repetition (see :func:`typical`); repetitions take turns on the CPUs
the process may use.
An operation is a cell (one kernel on one composition, with its runs)
in ``paper-eval`` and ``kernel-mix``, one request in ``serve-cold`` and
one mutant in ``mutation``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from typing import Dict, List, Tuple

from perfbench import reference
from perfbench.spans import NULL_RECORDER, Recorder
from perfbench.workloads import WORKLOADS, Rep, quantile

#: span names whose self time is a per-layer metric (``<name>.s``)
LAYER_SPANS = (
    "ir.frontend",
    "ir.transform",
    "sched.region",
    "sched.place.list",
    "sched.place.modulo",
    "context.regalloc",
    "context.emit",
    "verify.check",
    "mutate.enumerate",
    "mutate.classify",
    "sim.compile",
    "sim.run",
)
#: per-layer work counts every workload reports (0 where unused)
LAYER_COUNTS = (
    "ir.nodes",
    "sched.place.calls",
    "sched.ops",
    "sim.runs",
    "mutate.mutants",
    "mutate.caught_static",
    "mutate.caught_dynamic",
    "mutate.equivalent",
)
#: serve-cold's per-layer numbers and their units (0 elsewhere)
SERVE_METRICS = {
    "serve.direct_p50_ms": "ms",
    "serve.memo_hit_frac": "ratio",
    "serve.sched_cache_hit_frac": "ratio",
    "serve.shed": "count",
    "serve.errors": "count",
}


def _peak_rss_mb(workload) -> float:
    # child processes (serve-cold's server and its worker) have all been
    # waited for by now; ru_maxrss is in KiB on Linux
    who = (
        resource.RUSAGE_CHILDREN
        if workload.works_in_children
        else resource.RUSAGE_SELF
    )
    return resource.getrusage(who).ru_maxrss / 1024.0


def _repeatable(reps: List[Rep]) -> bool:
    first = reps[0]
    return all(
        r.quality == first.quality and r.counts == first.counts for r in reps
    )


def median_total(reps: List[Tuple[Rep, float]]) -> float:
    """Median over the repetitions of their total time, each scaled.

    Each repetition comes with the host scale the meter measured while
    it ran.  Other virtual machines on a shared host slow this one for
    stretches of minutes, and for a whole run: on a shared 2-CPU host,
    ten seeds' runs of each workload spread 28-38 % (interquartile range
    over median) unscaled.
    """
    return statistics.median(sum(rep.latencies) * k for rep, k in reps)


def typical(reps: List[Tuple[Rep, float]], wall_s: float) -> List[float]:
    """Each operation's time, as its share of ``wall_s``.

    An operation's share of its repetition's total is the same however
    hard other processes slow the whole repetition, so its median share
    over the repetitions is a steady measure of its relative cost, and
    percentiles of the times these shares give are about as steady as
    the total.  Percentiles of each operation's own times are not:
    where many operations cost about the same, as the 18 cells of
    ``paper-eval`` do, the 95th percentile is the one time the host
    happened to disturb most.  Every repetition does the same
    operations in the same order, so operation ``i`` is the same work
    in each.
    """
    latencies = [rep.latencies for rep, _ in reps]
    totals = [sum(times) for times in latencies]
    shares = [
        statistics.median(t / total for t, total in zip(times, totals))
        for times in zip(*latencies)
    ]
    scale = wall_s / sum(shares)
    return [share * scale for share in shares]


def _measured_rep(workload, rec) -> Tuple[Rep, float]:
    rep = workload.rep(rec)
    return rep, workload.meter.take()


def measure(
    workload, seconds: float, trace: bool, spans_path: str, cpus: List[int]
) -> Dict:
    plain: List[Tuple[Rep, float]] = []
    traced: List[Tuple[Rep, float]] = []
    workload.meter = reference.Meter()
    recorder = Recorder()
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        # another process on the host often slows one CPU and not the
        # other: taking turns keeps either from setting the whole run
        # (a traced repetition runs on the same CPU as its untraced twin)
        os.sched_setaffinity(0, {cpus[len(plain) % len(cpus)]})
        plain.append(_measured_rep(workload, NULL_RECORDER))
        if trace:
            with recorder.span("rep"):
                traced.append(_measured_rep(workload, recorder))
        cycle = time.perf_counter() - t0
        if time.perf_counter() + cycle > deadline:
            break
    workload.finish()
    reps = [rep for rep, _ in plain + traced]
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    wall_s = median_total(plain)
    ops = typical(plain, wall_s)
    req_p50_ms = 1e3 * quantile(ops, 0.5)
    first = reps[0]
    if not trace:
        metrics = {
            "wall_s": (wall_s, "s"),
            "req_p50_ms": (req_p50_ms, "ms"),
            "req_p95_ms": (1e3 * quantile(ops, 0.95), "ms"),
            "peak_rss_mb": (_peak_rss_mb(workload), "MB"),
            "sim_cycles": (first.quality["sim_cycles"], "count"),
            "contexts": (first.quality["contexts"], "count"),
            "rf_entries": (first.quality["rf_entries"], "count"),
        }
    else:
        recorder.write(spans_path)
        # per traced repetition, scaled like the end-to-end times
        per_rep = statistics.median(k for _, k in traced) / len(traced)
        self_s = {
            span: s * per_rep for span, s in recorder.self_times().items()
        }
        metrics = {f"{span}.s": (self_s.get(span, 0.0), "s") for span in LAYER_SPANS}
        for count in LAYER_COUNTS:
            metrics[count] = (first.counts.get(count, 0), "count")
        sim_run_s = self_s.get("sim.run", 0.0)
        metrics["sim.cycles_per_s"] = (
            first.quality["sim_cycles"] / sim_run_s if sim_run_s else 0.0,
            "1/s",
        )
        serve = workload.layer_metrics()
        if serve:
            # replayed after the repetitions, so scaled as they were
            serve["serve.direct_p50_ms"] *= statistics.median(k for _, k in plain)
        for key, unit in SERVE_METRICS.items():
            metrics[key] = (serve.get(key, 0), unit)
        metrics["serve.overhead_p50_ms"] = (
            req_p50_ms - serve["serve.direct_p50_ms"] if serve else 0.0,
            "ms",
        )
        mutants = first.counts.get("mutate.mutants", 0)
        metrics["static_caught_frac"] = (
            first.counts.get("mutate.caught_static", 0) / mutants if mutants else 0.0,
            "ratio",
        )
        metrics["failed_frac"] = (failed / attempted, "ratio")
        metrics["req.samples"] = (len(ops), "count")
        metrics["trace.overhead_frac"] = (median_total(traced) / wall_s - 1.0, "ratio")
    return {
        "correct": failed == 0 and _repeatable(reps),
        "attempted": attempted,
        "failed": failed,
        "reps": len(plain),
        "samples": len(ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    work_dir = os.path.join(args.work_dir, f"worker-{os.getpid()}")
    os.makedirs(work_dir)
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    cpus = sorted(os.sched_getaffinity(0))
    if not args.setup_only:
        # servers started during set-up run where the first repetition does
        os.sched_setaffinity(0, {cpus[0]})
    try:
        workload.setup()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = measure(
            workload, args.seconds, bool(args.trace), args.spans, cpus
        )
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
