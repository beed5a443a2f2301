"""Differential wall around the modulo scheduling strategy.

Every pipelineable workload is scheduled twice — list mode and modulo
mode — on several compositions, and the modulo-scheduled program is
executed through both simulator backends.  Live-outs and final
heap contents must be bit-equal to the list-mode reference in every
cell, and the software pipeline must actually pay off (fewer dynamic
cycles) on the MAC-shaped loops the paper's Section V targets.
"""

import pytest

from repro.arch.library import irregular_composition, mesh_composition
from repro.context.generator import generate_contexts
from repro.sched.scheduler import schedule_kernel
from repro.sim.invocation import invoke_kernel
from repro.verify import verify_program
from repro.verify.workloads import get_workload

#: workloads whose innermost loop bodies are modulo-eligible (clean
#: single-block or speculatable-if bodies); gcd/adpcm exercise the
#: fallback path in test_fallback_is_bit_equal instead
PIPELINEABLE = ("dotp", "fir", "matmul", "crc32", "histogram", "sort")

COMPS = {
    "mesh4": mesh_composition(4),
    "mesh8": mesh_composition(8),
    "irregularB": irregular_composition("B"),
}

BACKENDS = ("interpreter", "compiled")


def _arrays(heap, kernel):
    return {ref.name: list(heap.array(ref.handle)) for ref in kernel.arrays}


@pytest.fixture(scope="module")
def schedules():
    """(workload, kernel, list schedule, modulo schedule) per cell."""
    cells = {}
    for wname in PIPELINEABLE:
        workload = get_workload(wname)
        kernel = workload.build()
        for clabel, comp in COMPS.items():
            s_list = schedule_kernel(kernel, comp)
            s_mod = schedule_kernel(kernel, comp, scheduler_mode="modulo")
            cells[(wname, clabel)] = (workload, kernel, s_list, s_mod)
    return cells


@pytest.mark.parametrize("wname", PIPELINEABLE)
@pytest.mark.parametrize("clabel", sorted(COMPS))
def test_modulo_pipelines_every_cell(schedules, wname, clabel):
    """Eligibility holds on every grid cell — no silent list fallback."""
    _, _, _, s_mod = schedules[(wname, clabel)]
    assert s_mod.modulo_loops, f"{wname} on {clabel} fell back to list"
    for info in s_mod.modulo_loops:
        assert info.ii >= max(info.res_mii, info.rec_mii)
        assert info.kernel_end - info.kernel_start + 1 == info.ii
        assert info.prologue_start < info.kernel_start


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("wname", PIPELINEABLE)
@pytest.mark.parametrize("clabel", sorted(COMPS))
def test_bit_equal_to_list_reference(schedules, wname, clabel, backend):
    workload, kernel, s_list, s_mod = schedules[(wname, clabel)]
    comp = COMPS[clabel]
    for i, vec in enumerate(workload.vectors):
        ref = invoke_kernel(
            kernel, comp, vec.livein, vec.fresh_arrays(), schedule=s_list
        )
        got = invoke_kernel(
            kernel,
            comp,
            vec.livein,
            vec.fresh_arrays(),
            schedule=s_mod,
            backend=backend,
        )
        assert got.results == ref.results, (
            f"{wname}/{clabel}/{backend} vector {i}: live-out divergence"
        )
        assert _arrays(got.heap, kernel) == _arrays(ref.heap, kernel), (
            f"{wname}/{clabel}/{backend} vector {i}: heap divergence"
        )


@pytest.mark.parametrize("wname", PIPELINEABLE)
def test_modulo_reduces_dynamic_cycles(schedules, wname):
    """The software pipeline wins on every pipelineable workload: the
    rotated steady state retires one iteration every II < list-span
    cycles (ISSUE acceptance: >= 3 loop kernels must improve)."""
    workload, kernel, s_list, s_mod = schedules[(wname, "mesh4")]
    comp = COMPS["mesh4"]
    vec = workload.vectors[0]
    ref = invoke_kernel(
        kernel, comp, vec.livein, vec.fresh_arrays(), schedule=s_list
    )
    got = invoke_kernel(
        kernel, comp, vec.livein, vec.fresh_arrays(), schedule=s_mod
    )
    assert got.run_cycles < ref.run_cycles, (
        f"{wname}: modulo {got.run_cycles} !< list {ref.run_cycles}"
    )


@pytest.mark.parametrize("wname", PIPELINEABLE)
@pytest.mark.parametrize("clabel", sorted(COMPS))
def test_static_checker_passes_modulo(schedules, wname, clabel):
    """The independent verifier accepts every modulo-scheduled program
    (rotated loops introduce backward *conditional* branches the list
    scheduler never emits)."""
    _, kernel, _, s_mod = schedules[(wname, clabel)]
    comp = COMPS[clabel]
    s_mod.validate(comp)
    program = generate_contexts(s_mod, comp, kernel)
    assert verify_program(program, comp) == []


@pytest.mark.parametrize("wname", ("gcd", "adpcm"))
def test_fallback_is_bit_equal(wname):
    """Kernels with non-pipelineable regions still schedule in modulo
    mode (per-region list fallback) and compute identical results."""
    workload = get_workload(wname)
    kernel = workload.build()
    comp = COMPS["mesh4"]
    s_list = schedule_kernel(kernel, comp)
    s_mod = schedule_kernel(kernel, comp, scheduler_mode="modulo")
    for vec in workload.vectors:
        ref = invoke_kernel(
            kernel, comp, vec.livein, vec.fresh_arrays(), schedule=s_list
        )
        got = invoke_kernel(
            kernel, comp, vec.livein, vec.fresh_arrays(), schedule=s_mod
        )
        assert got.results == ref.results
        assert _arrays(got.heap, kernel) == _arrays(ref.heap, kernel)


def test_auto_keeps_list_when_modulo_does_not_pay():
    """gcd's loop body is control flow; auto probes both realisations
    and keeps the list one (no modulo loops in the auto schedule)."""
    kernel = get_workload("gcd").build()
    comp = COMPS["mesh4"]
    s_auto = schedule_kernel(kernel, comp, scheduler_mode="auto")
    s_list = schedule_kernel(kernel, comp)
    assert s_auto.modulo_loops == []
    assert s_auto.n_cycles == s_list.n_cycles
