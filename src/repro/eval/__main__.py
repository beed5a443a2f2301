"""Regenerate the full evaluation: ``python -m repro.eval``.

Prints Tables I-IV, the figure statistics and the Section VI-A headline
speedup.  Pass ``--quick`` to decode 64 instead of 416 samples.
``--trace FILE`` writes a Chrome-trace JSON (open in chrome://tracing
or https://ui.perfetto.dev) and ``--metrics FILE`` a metrics-snapshot
JSON of the run's scheduler/simulator internals; see
docs/observability.md.

``--jobs N`` schedules the kernel×composition grids on N worker
processes and ``--cache-dir DIR`` reuses schedules across runs through
the content-addressed schedule cache — both produce byte-identical
results to the serial uncached path; see docs/performance.md.

``--sim-backend`` selects the simulator executor: the AOT-``compiled``
backend (default — context programs are lowered once to pre-bound step
records and fused traces) or the per-cycle ``interpreter`` reference.
Results are identical.  ``--max-cycles`` tightens the per-run runaway
bound below the 50M default.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.eval.figures import fig11_stats, fig12_stats, fig13_meshes, fig14_irregular
from repro.eval.report import (
    render_table1,
    render_table2,
    render_table3,
    render_table4,
)
from repro.eval.tables import (
    MESH_SIZES,
    speedup_headline,
    table1,
    table2,
    table3,
    table4,
)
from repro.kernels.adpcm import N_SAMPLES
from repro.obs import observe, timed
from repro.sim.machine import SIM_BACKENDS


def _run_eval(
    n: int,
    *,
    jobs: int = 1,
    cache_dir=None,
    cache_max_bytes=None,
    sim_backend: str = "compiled",
    max_cycles=None,
    scheduler_mode: str = "list",
    compare_schedulers: bool = False,
) -> int:
    grid = {
        "jobs": jobs,
        "cache_dir": cache_dir,
        "cache_max_bytes": cache_max_bytes,
        "backend": sim_backend,
        "scheduler_mode": scheduler_mode,
    }
    if max_cycles is not None:
        grid["max_cycles"] = max_cycles
    grid_no_mode = {k: v for k, v in grid.items() if k != "scheduler_mode"}
    with timed("eval.total") as total:
        print(f"=== ADPCM decode, {n} samples, unroll factor 2 ===\n")

        runs2 = table2(n_samples=n, **grid)
        mesh_runs = {k: v for k, v in runs2.items() if "PEs" == k.split()[-1]}

        print("Table I — memory utilisation of the ADPCM decoder schedules")
        print(render_table1(mesh_runs))
        print()

        print("Table II — execution times / synthesis estimates")
        print(render_table2(runs2))
        print()

        runs3 = table3(n_samples=n, **grid)
        print("Table III — single-cycle multipliers")
        print(render_table3(runs3))
        print()

        times = table4(n_samples=n, dual=mesh_runs, single=runs3)
        print("Table IV — ADPCM decode execution times in milliseconds")
        print(render_table4(times))
        print()

        sp = speedup_headline(n_samples=n, runs=mesh_runs)
        print(
            f"Headline: AMIDAR baseline {sp.baseline_cycles} cycles, best CGRA "
            f"({sp.best_label}) {sp.best_cycles} cycles -> speedup "
            f"{sp.speedup:.1f}x (correct={sp.correct})"
        )
        print()

        f11 = fig11_stats()
        print(
            f"Fig. 11 example CDFG: {f11.nodes} nodes, {f11.data_edges} data "
            f"edges, {f11.control_edges} control edges, "
            f"{f11.loop_carried_edges} loop-carried, depth {f11.max_loop_depth}"
        )
        f12 = fig12_stats()
        print(
            f"Fig. 12 ADPCM control flow: {f12.loops} loops (max depth "
            f"{f12.max_loop_depth}), {f12.branch_points} branch points, "
            f"{f12.conditional_loops} conditional loops"
        )
        print(
            f"Fig. 13 meshes: {sorted(fig13_meshes())} | Fig. 14 irregular: "
            f"{sorted(fig14_irregular())}"
        )
        sched_times = [r.schedule_seconds for r in runs2.values()]
        print(
            f"Scheduling + context generation: max "
            f"{max(sched_times):.2f} s per composition (paper: <= 3.1 s)"
        )
        if compare_schedulers:
            from repro.eval.tables import scheduler_mode_report

            print()
            print("Scheduler comparison — list vs modulo (Table II grid)")
            report = scheduler_mode_report(n_samples=n, **grid_no_mode)
            hdr = (
                f"{'composition':<16} {'list':>9} {'modulo':>9} "
                f"{'speedup':>8} {'sw-pipelined':>13} {'correct':>8}"
            )
            print(hdr)
            for cell in report.values():
                print(
                    f"{cell.label:<16} {cell.list_cycles:>9} "
                    f"{cell.modulo_cycles:>9} {cell.speedup:>7.2f}x "
                    f"{cell.modulo_loops:>13} {str(cell.correct):>8}"
                )
        if cache_dir is not None:
            from repro.perf.cache import shared_cache

            stats = shared_cache(cache_dir).stats()
            print(
                f"schedule cache: {stats['hits']} hits, "
                f"{stats['misses']} misses ({cache_dir})"
            )
    print(f"\nTotal evaluation time: {total.seconds:.1f} s")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="decode 64 samples instead of 416"
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a Chrome-trace JSON of the evaluation run",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="write a metrics-snapshot JSON of the evaluation run",
    )
    parser.add_argument(
        "--ledger",
        metavar="FILE",
        help="write the run ledger (one JSONL record per pipeline "
        "invocation) — see docs/observability.md",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="schedule the composition grids on N worker processes "
        "(0 = all cores, 1 = serial; results are identical)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="content-addressed schedule cache directory; reruns reuse "
        "cached schedules (see docs/performance.md)",
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="size bound for the on-disk schedule cache; oldest entries "
        "are LRU-evicted once the store exceeds the budget",
    )
    parser.add_argument(
        "--sim-backend",
        choices=SIM_BACKENDS,
        default="compiled",
        help="simulator executor: AOT-compiled traces (default) or the "
        "per-cycle reference interpreter; results are identical",
    )
    parser.add_argument(
        "--max-cycles",
        type=int,
        default=None,
        metavar="N",
        help="per-run runaway-loop bound (default 50M)",
    )
    parser.add_argument(
        "--scheduler-mode",
        choices=("list", "modulo", "auto"),
        default="list",
        help="per-region scheduling strategy: the paper's list scheduler "
        "(default), modulo software pipelining for eligible innermost "
        "loops, or auto (modulo only where it beats list)",
    )
    parser.add_argument(
        "--compare-schedulers",
        action="store_true",
        help="append a list-vs-modulo cycle comparison over the Table II "
        "grid (see docs/scheduler.md)",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the independent post-emission context verifier "
        "(see docs/testing.md) for maximum scheduling throughput",
    )
    args = parser.parse_args(argv)
    if args.no_verify:
        from repro.verify import set_verify_enabled

        set_verify_enabled(False)
    n = 64 if args.quick else N_SAMPLES
    kwargs = {
        "jobs": args.jobs,
        "cache_dir": args.cache_dir,
        "cache_max_bytes": args.cache_max_bytes,
        "sim_backend": args.sim_backend,
        "max_cycles": args.max_cycles,
        "scheduler_mode": args.scheduler_mode,
        "compare_schedulers": args.compare_schedulers,
    }

    if not (args.trace or args.metrics or args.ledger):
        return _run_eval(n, **kwargs)

    from repro.obs import RunLedger, set_ledger

    ledger = RunLedger(args.ledger)
    previous_ledger = set_ledger(ledger) if args.ledger else None
    try:
        with observe() as session:
            rc = _run_eval(n, **kwargs)
    finally:
        if args.ledger:
            set_ledger(previous_ledger)
    if args.trace:
        session.tracer.to_chrome(args.trace)
        print(f"trace written to {args.trace} ({len(session.tracer.records)} records)")
    if args.metrics:
        with open(args.metrics, "w") as fh:
            json.dump(session.metrics.snapshot(), fh, indent=2)
        print(f"metrics written to {args.metrics}")
    if args.ledger:
        ledger.write()
        print(f"run ledger written to {args.ledger} ({len(ledger)} records)")
    return rc


if __name__ == "__main__":
    sys.exit(main())
