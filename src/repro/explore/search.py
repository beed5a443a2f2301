"""Mutation-based composition search.

A composition is encoded by its degrees of freedom:

* the set of bidirectional interconnect links,
* which PEs carry a multiplier (inhomogeneity, as composition F),
* which PEs own a DMA interface (at most four),
* the register-file size (32 / 64 / 128).

Candidates are *evaluated honestly*: every workload of the domain is
scheduled, context-generated and simulated on the candidate; the score
combines estimated wall-clock (cycles / model frequency) with an FPGA
area penalty.  Infeasible candidates (unschedulable, disconnected,
capacity overflow) score infinity.  Search is stochastic hill climbing
with restarts — small, deterministic under a seed, and good enough to
beat hand-built baselines on mixed workloads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.arch.composition import MAX_DMA_PES, Composition
from repro.arch.interconnect import Interconnect
from repro.arch.pe import PEDescription
from repro.context.generator import generate_contexts
from repro.fpga import estimate
from repro.ir.cdfg import Kernel
from repro.obs import get_metrics
from repro.perf.cache import shared_cache
from repro.perf.parallel import ParallelEvaluator
from repro.sched.schedule import SchedulingError
from repro.sched.scheduler import schedule_kernel
from repro.sim.invocation import invoke_kernel

__all__ = ["Workload", "Evaluation", "ExplorationResult", "CompositionExplorer"]

#: cache-format tag for explorer-cached programs (see repro.eval.tables)
_CACHE_FORMAT = 1


def _workload_task(task) -> Tuple[str, Optional[int], int, int]:
    """Schedule+simulate one workload on one candidate composition.

    Module-level so :class:`~repro.perf.parallel.ParallelEvaluator` can
    ship it to pool workers.  Returns ``(workload name, cycles or None,
    cache hit delta, cache miss delta)``.
    """
    (name, kernel, comp, livein, arrays, cached, cache_dir, backend,
     scheduler_mode) = task
    cache = shared_cache(cache_dir) if cached else None
    before = (cache.hits, cache.misses) if cache else (0, 0)
    try:
        if cache is None:
            program = None
        else:

            def _compute():
                schedule = schedule_kernel(
                    kernel, comp, scheduler_mode=scheduler_mode
                )
                return generate_contexts(schedule, comp, kernel)

            program, _hit = cache.get_or_compute(
                kernel,
                comp,
                _compute,
                fmt=_CACHE_FORMAT,
                scheduler_mode=scheduler_mode,
            )
        res = invoke_kernel(
            kernel,
            comp,
            dict(livein),
            {k: list(v) for k, v in arrays.items()},
            program=program,
            backend=backend,
            scheduler_mode=scheduler_mode,
        )
        cycles: Optional[int] = res.run_cycles
    except SchedulingError:
        cycles = None
    after = (cache.hits, cache.misses) if cache else (0, 0)
    return name, cycles, after[0] - before[0], after[1] - before[1]

_RF_CHOICES = (32, 64, 128)


@dataclass
class Workload:
    """One kernel of the application domain with representative inputs."""

    name: str
    kernel: Kernel
    livein: Mapping[str, int]
    arrays: Mapping[str, Sequence[int]] = field(default_factory=dict)
    #: relative importance in the objective
    weight: float = 1.0


@dataclass
class Evaluation:
    composition: Composition
    #: per-workload simulated cycles (None = failed to map)
    cycles: Dict[str, Optional[int]]
    feasible: bool
    frequency_mhz: float
    lut_logic_pct: float
    dsp_pct: float
    #: weighted wall-clock in ms, area-penalised (lower is better)
    score: float


@dataclass
class ExplorationResult:
    best: Evaluation
    evaluations: int
    history: List[float]  # best score per iteration


@dataclass(frozen=True)
class _Genome:
    n_pes: int
    links: frozenset  # of (a, b) with a < b
    muls: frozenset
    dmas: frozenset
    rf_size: int

    def build(self, mul_duration: int = 2, context_size: int = 256) -> Composition:
        sources: List[set] = [set() for _ in range(self.n_pes)]
        for a, b in self.links:
            sources[a].add(b)
            sources[b].add(a)
        icn = Interconnect.from_sources(sources)
        pes = []
        for i in range(self.n_pes):
            pes.append(
                PEDescription.homogeneous(
                    name=f"PE{i}" + ("_mem" if i in self.dmas else ""),
                    regfile_size=self.rf_size,
                    has_dma=i in self.dmas,
                    mul_duration=mul_duration,
                    exclude_ops=() if i in self.muls else ("IMUL",),
                )
            )
        return Composition(
            name="explored",
            pes=tuple(pes),
            interconnect=icn,
            context_size=context_size,
        )


class CompositionExplorer:
    def __init__(
        self,
        workloads: Sequence[Workload],
        *,
        n_pes: int = 8,
        seed: int = 0,
        area_weight: float = 0.05,
        context_size: int = 256,
        jobs: int = 1,
        cache: bool = False,
        cache_dir: Optional[str] = None,
        sim_backend: str = "compiled",
        scheduler_mode: str = "list",
    ) -> None:
        """``jobs > 1`` schedules a candidate's workloads on a process
        pool; ``cache=True`` (or a ``cache_dir``) memoises schedules by
        content address, so hill-climbing restarts that revisit a genome
        skip scheduling entirely.  ``sim_backend`` selects the simulator
        executor (AOT-compiled by default — candidate evaluation is
        simulation-bound).  All knobs leave every evaluation result
        identical to the serial uncached interpreter path."""
        if not workloads:
            raise ValueError("need at least one workload")
        self.workloads = list(workloads)
        self.n_pes = n_pes
        self.rng = random.Random(seed)
        self.area_weight = area_weight
        self.context_size = context_size
        self._needs_mul = any(
            "IMUL" in w.kernel.used_alu_opcodes() for w in workloads
        )
        self._needs_dma = any(w.kernel.arrays for w in workloads)
        self._eval_count = 0
        self._evaluator = ParallelEvaluator(jobs)
        self._cached = cache or cache_dir is not None
        self._cache_dir = cache_dir
        self._cache = shared_cache(cache_dir) if self._cached else None
        self.sim_backend = sim_backend
        from repro.sched.strategy import validate_scheduler_mode

        self.scheduler_mode = validate_scheduler_mode(scheduler_mode)

    # -- evaluation -------------------------------------------------------

    def cache_stats(self) -> Dict[str, int]:
        """Hit/miss/entry counts of the schedule cache (zeros if off)."""
        if self._cache is None:
            return {"hits": 0, "misses": 0, "entries": 0}
        return self._cache.stats()

    def evaluate(self, comp: Composition) -> Evaluation:
        self._eval_count += 1
        fpga = estimate(comp)
        tasks = [
            (w.name, w.kernel, comp, w.livein, w.arrays, self._cached,
             self._cache_dir, self.sim_backend, self.scheduler_mode)
            for w in self.workloads
        ]
        results = self._evaluator.map(_workload_task, tasks)
        if self._evaluator.last_used_pool and self._cache is not None:
            # pool workers keep their own counters; fold the deltas back
            hits = sum(r[2] for r in results)
            misses = sum(r[3] for r in results)
            self._cache.hits += hits
            self._cache.misses += misses
            metrics = get_metrics()
            if metrics.enabled:
                metrics.inc("perf.cache.hits", hits)
                metrics.inc("perf.cache.misses", misses)
        cycles: Dict[str, Optional[int]] = {}
        feasible = True
        total_ms = 0.0
        for w, (name, run_cycles, _h, _m) in zip(self.workloads, results):
            cycles[name] = run_cycles
            if run_cycles is None:
                feasible = False
            else:
                total_ms += (
                    w.weight * run_cycles / (fpga.frequency_mhz * 1e3)
                )
        if feasible:
            score = total_ms * (1.0 + self.area_weight * fpga.lut_logic_pct)
            score *= 1.0 + self.area_weight * 4 * fpga.dsp_pct
        else:
            score = float("inf")
        return Evaluation(
            composition=comp,
            cycles=cycles,
            feasible=feasible,
            frequency_mhz=fpga.frequency_mhz,
            lut_logic_pct=fpga.lut_logic_pct,
            dsp_pct=fpga.dsp_pct,
            score=score,
        )

    # -- genome operations --------------------------------------------------

    def _all_pairs(self) -> List[Tuple[int, int]]:
        return [
            (a, b)
            for a in range(self.n_pes)
            for b in range(a + 1, self.n_pes)
        ]

    def _random_genome(self) -> _Genome:
        rng = self.rng
        pairs = self._all_pairs()
        # ring backbone guarantees strong connectivity
        backbone = {
            (min(i, (i + 1) % self.n_pes), max(i, (i + 1) % self.n_pes))
            for i in range(self.n_pes)
        }
        extras = {p for p in pairs if rng.random() < 0.25}
        muls = (
            frozenset(
                i for i in range(self.n_pes) if rng.random() < 0.5
            )
            or frozenset({0})
            if self._needs_mul
            else frozenset(
                i for i in range(self.n_pes) if rng.random() < 0.3
            )
        )
        n_dma = rng.randint(1, MAX_DMA_PES) if self._needs_dma else 0
        dmas = frozenset(rng.sample(range(self.n_pes), n_dma))
        return _Genome(
            n_pes=self.n_pes,
            links=frozenset(backbone | extras),
            muls=muls,
            dmas=dmas,
            rf_size=rng.choice(_RF_CHOICES),
        )

    def _mutate(self, genome: _Genome) -> _Genome:
        rng = self.rng
        links = set(genome.links)
        muls = set(genome.muls)
        dmas = set(genome.dmas)
        rf = genome.rf_size
        kind = rng.choice(
            ("add_link", "drop_link", "toggle_mul", "move_dma", "rf")
        )
        if kind == "add_link":
            candidates = [p for p in self._all_pairs() if p not in links]
            if candidates:
                links.add(rng.choice(candidates))
        elif kind == "drop_link" and len(links) > self.n_pes:
            links.discard(rng.choice(sorted(links)))
        elif kind == "toggle_mul":
            pe = rng.randrange(self.n_pes)
            if pe in muls:
                if not self._needs_mul or len(muls) > 1:
                    muls.discard(pe)
            else:
                muls.add(pe)
        elif kind == "move_dma" and dmas:
            dmas.discard(rng.choice(sorted(dmas)))
            dmas.add(rng.randrange(self.n_pes))
        elif kind == "rf":
            rf = rng.choice(_RF_CHOICES)
        if self._needs_dma and not dmas:
            dmas.add(rng.randrange(self.n_pes))
        return _Genome(
            n_pes=self.n_pes,
            links=frozenset(links),
            muls=frozenset(muls),
            dmas=frozenset(dmas),
            rf_size=rf,
        )

    def _feasible_genome(self, genome: _Genome) -> Optional[Composition]:
        if len(genome.dmas) > MAX_DMA_PES:
            return None
        try:
            comp = genome.build(context_size=self.context_size)
        except ValueError:
            return None
        if not comp.interconnect.is_strongly_connected():
            return None
        return comp

    # -- search ---------------------------------------------------------------

    def search(
        self, *, iterations: int = 30, restarts: int = 2
    ) -> ExplorationResult:
        """Stochastic hill climbing with restarts; returns the best."""
        best: Optional[Evaluation] = None
        history: List[float] = []
        for _ in range(max(1, restarts)):
            genome = self._random_genome()
            comp = self._feasible_genome(genome)
            while comp is None:
                genome = self._random_genome()
                comp = self._feasible_genome(genome)
            current = self.evaluate(comp)
            if best is None or current.score < best.score:
                best = current
            for _ in range(iterations):
                candidate_genome = self._mutate(genome)
                comp = self._feasible_genome(candidate_genome)
                if comp is None:
                    history.append(best.score)
                    continue
                candidate = self.evaluate(comp)
                if candidate.score <= current.score:
                    current = candidate
                    genome = candidate_genome
                if candidate.score < best.score:
                    best = candidate
                history.append(best.score)
        assert best is not None
        return ExplorationResult(
            best=best, evaluations=self._eval_count, history=history
        )
