"""The benchmark's own tests.

Run from the root of the repository::

    PYTHONPATH=src:. python -m pytest perfbench/test_perfbench.py -q

They check that the benchmark measures the program it claims to: the
layer-by-layer pipeline of ``perfbench/layers.py`` emits exactly the
programs of the two-call surface, the mutation workload classifies
exactly as the campaign does, the oracles reject wrong outputs, and the
harness refuses to run without the program.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.arch.library import all_paper_compositions, mesh_composition
from repro.context.generator import generate_contexts
from repro.perf.fingerprint import program_digest
from repro.sched.scheduler import schedule_kernel
from repro.verify.mutate import OUTCOMES, run_mutation_campaign
from repro.verify.workloads import WORKLOADS, get_workload

from perfbench import layers, oracle
from perfbench.spans import NULL_RECORDER, Recorder
from perfbench.workloads import (
    MODES,
    MUTATION_COMPOSITION,
    MUTATION_KERNELS,
    Mutation,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINNED = os.path.join(
    ROOT, "tests", "integration", "regressions", "list_digests.json"
)


def _layered_digest(name, comp, mode):
    kernel = layers.build_kernel(NULL_RECORDER, name)
    compiled = layers.compile_kernel(NULL_RECORDER, kernel, comp, mode)
    return program_digest(compiled.program)


def test_list_mode_digests_match_the_pinned_baseline():
    with open(PINNED) as fh:
        pinned = json.load(fh)
    for name in WORKLOADS:
        for label, comp in all_paper_compositions().items():
            assert _layered_digest(name, comp, "list") == pinned[f"{name}|{label}"]


@pytest.mark.parametrize("mode", MODES)
def test_digests_match_schedule_kernel_plus_generate_contexts(mode):
    for name in WORKLOADS:
        kernel = get_workload(name).build()
        for comp in all_paper_compositions().values():
            schedule = schedule_kernel(kernel, comp, scheduler_mode=mode)
            want = program_digest(generate_contexts(schedule, comp, kernel))
            assert _layered_digest(name, comp, mode) == want, (name, comp.name)


def test_mutation_counts_match_the_campaign_report(tmp_path):
    workload = Mutation(0, str(tmp_path))
    workload.setup()
    rep = workload.rep(NULL_RECORDER)
    report = run_mutation_campaign(
        [get_workload(name) for name in MUTATION_KERNELS],
        [mesh_composition(MUTATION_COMPOSITION)],
    )
    assert rep.counts["mutate.mutants"] == report.n_mutants
    for outcome in OUTCOMES:
        assert rep.counts.get(f"mutate.{outcome}", 0) == report.count(outcome)
    assert rep.failed == 0


def test_oracle_rejects_a_wrong_output():
    vector = get_workload("sort").vectors[0]
    want = oracle.expected("sort", vector.livein, vector.arrays)
    good = {"data": want[1]["data"]}
    assert oracle.matches(want, {}, good)
    assert not oracle.matches(want, {}, {"data": list(reversed(good["data"]))})
    gcd = oracle.expected("gcd", {"a": 12, "b": 18}, {})
    assert oracle.matches(gcd, {"a": 6}, {})
    assert not oracle.matches(gcd, {"a": 3}, {})


def test_self_time_excludes_child_spans():
    rec = Recorder()
    with rec.span("parent", op="x"):
        with rec.span("child"):
            pass
    parent, child = rec.spans
    assert child[4] == "x"  # children inherit the operation id
    times = rec.self_times()
    assert times["parent"] == pytest.approx(
        (parent[2] - parent[1]) - (child[2] - child[1])
    )
    assert times["child"] == pytest.approx(child[2] - child[1])


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-eval",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
