"""Tests for the composition explorer (paper future work, §VII)."""

import pytest

from repro.arch.library import mesh_composition
from repro.explore import CompositionExplorer, Workload
from repro.kernels import dotp, gcd


@pytest.fixture(scope="module")
def workloads():
    xs, ys = dotp.sample_inputs(12)
    return [
        Workload("dotp", dotp.build_kernel(), {"n": 12}, {"xs": xs, "ys": ys}),
        Workload("gcd", gcd.build_kernel(), {"a": 1071, "b": 462}),
    ]


class TestEvaluate:
    def test_known_composition(self, workloads):
        explorer = CompositionExplorer(workloads, n_pes=4, seed=1)
        ev = explorer.evaluate(mesh_composition(4))
        assert ev.feasible
        assert ev.cycles["dotp"] > 0 and ev.cycles["gcd"] > 0
        assert 0 < ev.score < float("inf")

    def test_infeasible_scores_infinity(self, workloads):
        from repro.arch.composition import Composition
        from repro.arch.interconnect import Interconnect
        from repro.arch.pe import PEDescription

        # no DMA anywhere: dotp cannot map
        pes = tuple(PEDescription.homogeneous(f"p{i}") for i in range(4))
        comp = Composition("nodma", pes, Interconnect.mesh(2, 2))
        explorer = CompositionExplorer(workloads, n_pes=4, seed=1)
        ev = explorer.evaluate(comp)
        assert not ev.feasible
        assert ev.score == float("inf")
        assert ev.cycles["dotp"] is None
        assert ev.cycles["gcd"] is not None  # gcd still mapped

    def test_needs_analysis(self, workloads):
        explorer = CompositionExplorer(workloads, n_pes=4, seed=1)
        assert explorer._needs_mul  # dotp multiplies
        assert explorer._needs_dma


class TestSearch:
    def test_finds_feasible_composition(self, workloads):
        explorer = CompositionExplorer(workloads, n_pes=4, seed=42)
        result = explorer.search(iterations=6, restarts=1)
        assert result.best.feasible
        assert result.evaluations >= 2
        best = result.best.composition
        assert best.interconnect.is_strongly_connected()
        assert 1 <= len(best.dma_pes()) <= 4

    def test_history_monotone_nonincreasing(self, workloads):
        explorer = CompositionExplorer(workloads, n_pes=4, seed=7)
        result = explorer.search(iterations=8, restarts=1)
        for a, b in zip(result.history, result.history[1:]):
            assert b <= a

    def test_deterministic_under_seed(self, workloads):
        r1 = CompositionExplorer(workloads, n_pes=4, seed=3).search(
            iterations=5, restarts=1
        )
        r2 = CompositionExplorer(workloads, n_pes=4, seed=3).search(
            iterations=5, restarts=1
        )
        assert r1.best.score == r2.best.score
        assert r1.history == r2.history

    def test_mutations_respect_constraints(self, workloads):
        explorer = CompositionExplorer(workloads, n_pes=4, seed=11)
        genome = explorer._random_genome()
        for _ in range(100):
            genome = explorer._mutate(genome)
            assert genome.dmas, "DMA requirement dropped"
            assert genome.muls, "multiplier requirement dropped"
            assert genome.rf_size in (32, 64, 128)

    def test_explored_beats_or_matches_sparse_baseline(self, workloads):
        """Search should at least match a poor hand-built baseline."""
        from repro.arch.library import irregular_composition

        explorer = CompositionExplorer(workloads, n_pes=8, seed=5)
        baseline = explorer.evaluate(irregular_composition("B"))
        result = explorer.search(iterations=10, restarts=2)
        assert result.best.score <= baseline.score


class TestPooledCacheMetrics:
    def test_cache_counters_match_cache_stats(self, workloads, tmp_path):
        """Pool workers' cache counters are folded back exactly once:
        the ``perf.cache.*`` metrics agree with the cache's own stats."""
        from repro.obs import observe

        with observe() as session:
            explorer = CompositionExplorer(
                workloads, n_pes=4, seed=1, jobs=2, cache_dir=str(tmp_path)
            )
            for _ in range(2):
                assert explorer.evaluate(mesh_composition(4)).feasible
        counters = session.metrics.snapshot()["counters"]
        stats = explorer.cache_stats()
        assert (stats["misses"], stats["hits"]) == (2, 2)
        assert counters["perf.cache.misses"] == stats["misses"]
        assert counters["perf.cache.hits"] == stats["hits"]
