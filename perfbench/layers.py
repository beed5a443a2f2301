"""The pipeline, driven one public layer call at a time.

Each function times the calls it makes into one module of ``repro``
under that layer's span name:

=====================  ==================================================
``ir.frontend``        ``build_kernel`` / ``build_decoder_kernel``
``ir.transform``       ``eliminate_common_subexpressions``,
                       ``unroll_inner_loops``
``sched.region``       ``strategy.analyze_regions``
``sched.place.<mode>`` ``scheduler.RegionScheduler(...).run()``
``context.regalloc``   ``generator.allocate_contexts``
``context.emit``       ``generator.emit_contexts``
``verify.check``       ``checker.assert_verified``
``sim.compile``        ``compiled.compile_program``
``sim.run``            ``invocation.run_invocation``
=====================  ==================================================

The post-emission verification hook is switched off only around
``emit_contexts`` and the checker is called right after it on the same
program, so verification runs exactly once per program and shows as
its own layer.  The result is the program ``schedule_kernel`` followed
by ``generate_contexts`` would emit (checked by
``perfbench/test_perfbench.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

from repro import kernels
from repro.arch.composition import Composition
from repro.context.generator import allocate_contexts, emit_contexts
from repro.context.words import ContextProgram
from repro.eval.tables import UNROLL_FACTOR
from repro.ir.cdfg import Kernel
from repro.ir.transform import eliminate_common_subexpressions, unroll_inner_loops
from repro.sched.schedule import Schedule
from repro.sched.scheduler import RegionScheduler
from repro.sched.strategy import analyze_regions
from repro.serve.jobs import DEFAULT_SIM_BACKEND
from repro.sim.compiled import compile_program
from repro.sim.invocation import InvocationResult, run_invocation
from repro.sim.memory import Heap
from repro.verify import assert_verified, set_verify_enabled

__all__ = ["Compiled", "build_kernel", "compile_kernel", "simulate", "heap_arrays"]

#: verify-workload name -> frontend call.  ADPCM is the decoder the
#: paper evaluates, followed by its Section VI-B transforms.
_FRONTENDS = {
    "adpcm": kernels.adpcm.build_decoder_kernel,
    "crc32": kernels.crc32.build_kernel,
    "dotp": kernels.dotp.build_kernel,
    "fir": kernels.fir.build_kernel,
    "gcd": kernels.gcd.build_kernel,
    "histogram": kernels.histogram.build_kernel,
    "matmul": kernels.matmul.build_kernel,
    "sort": kernels.sort.build_kernel,
}


@dataclass
class Compiled:
    schedule: Schedule
    program: ContextProgram


def build_kernel(rec, name: str) -> Kernel:
    """Frontend, plus CSE and inner-loop unrolling for ADPCM."""
    with rec.span("ir.frontend"):
        kernel = _FRONTENDS[name]()
    if name == "adpcm":
        with rec.span("ir.transform"):
            eliminate_common_subexpressions(kernel)
            unroll_inner_loops(kernel, UNROLL_FACTOR)
    return kernel


def compile_kernel(
    rec, kernel: Kernel, comp: Composition, mode: str
) -> Compiled:
    """Region analysis, placement, regalloc, emission and the check."""
    with rec.span("sched.region"):
        plan = analyze_regions(kernel, mode=mode)
    with rec.span(f"sched.place.{mode}"):
        schedule = RegionScheduler(
            kernel, comp, scheduler_mode=mode, region_plan=plan
        ).run()
    with rec.span("context.regalloc"):
        allocation = allocate_contexts(schedule, comp)
    previous = set_verify_enabled(False)
    try:
        with rec.span("context.emit"):
            program = emit_contexts(schedule, comp, allocation, kernel)
    finally:
        set_verify_enabled(previous)
    with rec.span("verify.check"):
        assert_verified(program, comp)
    return Compiled(schedule, program)


def simulate(
    rec,
    kernel: Kernel,
    comp: Composition,
    program: ContextProgram,
    livein: Mapping[str, int],
    arrays: Mapping[str, Sequence[int]],
) -> InvocationResult:
    """One invocation on the job layer's default simulator backend."""
    if DEFAULT_SIM_BACKEND == "compiled":
        with rec.span("sim.compile"):
            compile_program(program, comp)
    heap = Heap()
    for ref in kernel.arrays:
        heap.allocate(ref.handle, list(arrays[ref.name]))
    with rec.span("sim.run"):
        return run_invocation(
            program, comp, dict(livein), heap, backend=DEFAULT_SIM_BACKEND
        )


def heap_arrays(kernel: Kernel, result: InvocationResult) -> Dict[str, list]:
    return {ref.name: result.heap.array(ref.handle) for ref in kernel.arrays}
