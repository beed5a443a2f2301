"""Regeneration of Tables I-IV and the Section VI-A headline numbers.

Every function runs the complete pipeline (frontend -> optimisations ->
scheduler -> contexts -> simulator) on the paper's workload: the ADPCM
decoder over 416 samples with unroll factor 2 for inner loops and
common-subexpression elimination, the settings of Section VI-B.

Absolute numbers differ from the paper (its CDFGs come from Java
bytecode; ours from a leaner IR — see EXPERIMENTS.md), but each table's
*shape* is compared in the benchmark assertions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.arch.composition import Composition
from repro.arch.library import (
    IRREGULAR_NAMES,
    MESH_SIZES,
    all_paper_compositions,
    mesh_composition,
    paper_mesh_compositions,
)
from repro.baseline import run_baseline
from repro.fpga import estimate
from repro.ir.cdfg import Kernel
from repro.ir.transform import eliminate_common_subexpressions, unroll_inner_loops
from repro.kernels.adpcm import (
    INDEX_TABLE,
    N_SAMPLES,
    STEP_TABLE,
    build_decoder_kernel,
    encoded_reference,
)
from repro.perf.cache import ScheduleCache
from repro.perf.parallel import ParallelEvaluator
from repro.sched.strategy import DEFAULT_SCHEDULER_MODE
from repro.serve.jobs import JobResult, JobSpec, execute_job
from repro.sim.machine import DEFAULT_MAX_CYCLES

__all__ = [
    "adpcm_workload",
    "CompositionRun",
    "run_adpcm_on",
    "run_grid",
    "table1",
    "table2",
    "table3",
    "table4",
    "speedup_headline",
    "SchedulerModeCell",
    "scheduler_mode_report",
]

#: paper evaluation settings (Section VI-B)
UNROLL_FACTOR = 2


def adpcm_workload(
    n_samples: int = N_SAMPLES, *, unroll: int = UNROLL_FACTOR
) -> Tuple[Kernel, Dict[str, List[int]], List[int]]:
    """(kernel, array contents, expected output) of the evaluation run."""
    kernel = build_decoder_kernel()
    eliminate_common_subexpressions(kernel)
    if unroll >= 2:
        unroll_inner_loops(kernel, unroll)
    packed, expect = encoded_reference(n_samples)
    arrays = {
        "inp": packed,
        "outp": [0] * n_samples,
        "steptab": list(STEP_TABLE),
        "indextab": list(INDEX_TABLE),
    }
    return kernel, arrays, expect


@dataclass
class CompositionRun:
    """Result of mapping + executing the workload on one composition."""

    label: str
    composition: Composition
    used_contexts: int
    max_rf_entries: int
    cycles: int
    correct: bool
    schedule_seconds: float
    frequency_mhz: float
    lut_logic_pct: float
    lut_mem_pct: float
    dsp_pct: float
    bram_pct: float
    #: simulated dynamic energy (Fig. 9's unit-less per-op scale)
    energy: float = 0.0

    @property
    def time_ms(self) -> float:
        """Execution time in milliseconds (Table IV: cycles / frequency)."""
        return self.cycles / (self.frequency_mhz * 1e3)


def _adpcm_spec(
    label: str,
    comp: Composition,
    *,
    n_samples: int,
    unroll: int,
    cached: bool = False,
    cache_dir: Optional[str] = None,
    cache_max_bytes: Optional[int] = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    scheduler_mode: str = DEFAULT_SCHEDULER_MODE,
) -> JobSpec:
    """The grid's per-cell job: the ADPCM workload on ``comp``."""
    return JobSpec(
        workload="adpcm",
        composition=comp,
        label=label,
        params=(("n_samples", n_samples), ("unroll", unroll)),
        cached=cached,
        cache_dir=cache_dir,
        cache_max_bytes=cache_max_bytes,
        max_cycles=max_cycles,
        scheduler_mode=scheduler_mode,
        ledger_kind="grid.cell",
    )


def _to_composition_run(result: JobResult, comp: Composition) -> CompositionRun:
    """JobResult -> the table-facing row (FPGA estimate runs here, in
    the parent — it is composition-only and never crosses the pool)."""
    fpga = estimate(comp)
    return CompositionRun(
        label=result.label,
        composition=comp,
        used_contexts=result.used_contexts,
        max_rf_entries=result.max_rf_entries,
        cycles=result.run_cycles,
        correct=bool(result.correct),
        schedule_seconds=result.schedule_seconds,
        frequency_mhz=fpga.frequency_mhz,
        lut_logic_pct=fpga.lut_logic_pct,
        lut_mem_pct=fpga.lut_mem_pct,
        dsp_pct=fpga.dsp_pct,
        bram_pct=fpga.bram_pct,
        energy=result.energy,
    )


def run_adpcm_on(
    label: str,
    comp: Composition,
    *,
    n_samples: int = N_SAMPLES,
    unroll: int = UNROLL_FACTOR,
    cache: Optional[ScheduleCache] = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    scheduler_mode: str = DEFAULT_SCHEDULER_MODE,
) -> CompositionRun:
    spec = _adpcm_spec(
        label,
        comp,
        n_samples=n_samples,
        unroll=unroll,
        max_cycles=max_cycles,
        scheduler_mode=scheduler_mode,
    )
    result = execute_job(spec, cache=cache)
    return _to_composition_run(result, comp)


def run_grid(
    items: Iterable[Tuple[str, Composition]],
    *,
    n_samples: int = N_SAMPLES,
    unroll: int = UNROLL_FACTOR,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    cached: bool = False,
    cache_max_bytes: Optional[int] = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    scheduler_mode: str = DEFAULT_SCHEDULER_MODE,
) -> Dict[str, CompositionRun]:
    """Run the ADPCM workload over a labelled composition grid.

    Each cell is a :class:`~repro.serve.jobs.JobSpec` executed through
    :func:`~repro.serve.jobs.execute_job` — the same job layer the
    scheduling server fans out to its worker pool.  ``jobs > 1`` maps
    the cells over a process pool (deterministic ordering, serial
    fallback); ``cache_dir``/``cached`` route scheduling through the
    content-addressed schedule cache (``cache_max_bytes`` bounds the
    on-disk artifact store, LRU-evicting oldest entries).  Results are
    identical to the serial uncached interpreter loop in all
    configurations.  ``max_cycles`` tightens the per-run runaway bound
    below the 50M default.
    """
    cached = cached or cache_dir is not None
    specs = [
        _adpcm_spec(
            label,
            comp,
            n_samples=n_samples,
            unroll=unroll,
            cached=cached,
            cache_dir=cache_dir,
            cache_max_bytes=cache_max_bytes,
            max_cycles=max_cycles,
            scheduler_mode=scheduler_mode,
        )
        for label, comp in items
    ]
    # pooled cells fold their workers' cache counters back into this
    # process's shared_cache(cache_dir) inside map (see fold_obs)
    results = ParallelEvaluator(jobs).map(execute_job, specs)
    return {
        result.label: _to_composition_run(result, spec.composition)
        for spec, result in zip(specs, results)
    }


def table1(*, n_samples: int = N_SAMPLES, **grid) -> Dict[str, CompositionRun]:
    """Table I: memory utilisation of the ADPCM schedules (meshes)."""
    items = [
        (f"{n} PEs", comp) for n, comp in paper_mesh_compositions().items()
    ]
    return run_grid(items, n_samples=n_samples, **grid)


def table2(*, n_samples: int = N_SAMPLES, **grid) -> Dict[str, CompositionRun]:
    """Table II: cycles + synthesis estimates, meshes and irregular A-F."""
    items = list(all_paper_compositions(mul_duration=2).items())
    return run_grid(items, n_samples=n_samples, **grid)


def table3(*, n_samples: int = N_SAMPLES, **grid) -> Dict[str, CompositionRun]:
    """Table III: single-cycle multipliers (meshes only, as the paper)."""
    items = [
        (f"{n} PEs", mesh_composition(n, mul_duration=1)) for n in MESH_SIZES
    ]
    return run_grid(items, n_samples=n_samples, **grid)


def table4(
    *,
    n_samples: int = N_SAMPLES,
    dual: Optional[Dict[str, CompositionRun]] = None,
    single: Optional[Dict[str, CompositionRun]] = None,
) -> Dict[str, Dict[str, float]]:
    """Table IV: execution times in milliseconds, both multiplier kinds."""
    if dual is None:
        dual = {
            label: run
            for label, run in table2(n_samples=n_samples).items()
            if label.endswith("PEs")
        }
    if single is None:
        single = table3(n_samples=n_samples)
    out: Dict[str, Dict[str, float]] = {}
    for label in single:
        out[label] = {
            "single_cycle_ms": single[label].time_ms,
            "dual_cycle_ms": dual[label].time_ms,
        }
    return out


@dataclass
class SpeedupResult:
    baseline_cycles: int
    best_label: str
    best_cycles: int
    speedup: float
    correct: bool


def speedup_headline(
    *, n_samples: int = N_SAMPLES, runs: Optional[Dict[str, CompositionRun]] = None
) -> SpeedupResult:
    """Section VI-A: AMIDAR baseline vs the best CGRA composition.

    The baseline interprets the *un-unrolled* kernel — AMIDAR executes
    the original bytecode sequence, unrolling only happens on the CGRA
    synthesis path (Fig. 1).
    """
    kernel, arrays, expect = adpcm_workload(n_samples, unroll=1)
    base = run_baseline(kernel, {"n": n_samples, "gain": 4096}, arrays)
    decoded = base.heap.array(kernel.arrays[1].handle)
    if runs is None:
        runs = {
            f"{n} PEs": run_adpcm_on(
                f"{n} PEs", mesh_composition(n), n_samples=n_samples
            )
            for n in MESH_SIZES
        }
    best = min(runs.values(), key=lambda r: r.cycles)
    return SpeedupResult(
        baseline_cycles=base.cycles,
        best_label=best.label,
        best_cycles=best.cycles,
        speedup=base.cycles / best.cycles,
        correct=decoded == expect and best.correct,
    )


@dataclass
class SchedulerModeCell:
    """One grid cell's list-vs-modulo comparison."""

    label: str
    list_cycles: int
    modulo_cycles: int
    #: software-pipelined loops in the modulo schedule (0 = every loop
    #: fell back to the list strategy, so the cycles match)
    modulo_loops: int
    list_contexts: int
    modulo_contexts: int
    correct: bool

    @property
    def speedup(self) -> float:
        return self.list_cycles / self.modulo_cycles


def scheduler_mode_report(
    *,
    n_samples: int = N_SAMPLES,
    single_cycle_mul: bool = False,
    modes: Tuple[str, str] = ("list", "modulo"),
    **grid,
) -> Dict[str, SchedulerModeCell]:
    """List-vs-modulo cycles across the full Table II (or III) grid.

    Runs the ADPCM evaluation workload through both scheduler modes on
    every composition of the chosen grid and pairs the runs up.  The
    ``correct`` flag ANDs both runs' oracles, so a modulo miscompile
    surfaces here as well as in the differential suite.
    """
    if single_cycle_mul:
        items = [
            (f"{n} PEs", mesh_composition(n, mul_duration=1))
            for n in MESH_SIZES
        ]
    else:
        items = list(all_paper_compositions(mul_duration=2).items())
    first = run_grid(
        items, n_samples=n_samples, scheduler_mode=modes[0], **grid
    )
    second = run_grid(
        items, n_samples=n_samples, scheduler_mode=modes[1], **grid
    )
    report: Dict[str, SchedulerModeCell] = {}
    for label, _comp in items:
        a, b = first[label], second[label]
        # count pipelined loops by re-scheduling just the second mode's
        # kernel is wasteful; the Schedule does not cross the job layer,
        # so derive it from the context counts when they differ and
        # fall back to a direct scheduling pass otherwise
        kernel, _arrays, _expect = adpcm_workload(n_samples)
        from repro.sched.scheduler import schedule_kernel

        sched = schedule_kernel(kernel, _comp, scheduler_mode=modes[1])
        report[label] = SchedulerModeCell(
            label=label,
            list_cycles=a.cycles,
            modulo_cycles=b.cycles,
            modulo_loops=len(sched.modulo_loops),
            list_contexts=a.used_contexts,
            modulo_contexts=b.used_contexts,
            correct=a.correct and b.correct,
        )
    return report
