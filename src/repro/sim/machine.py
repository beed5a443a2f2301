"""Cycle-accurate execution of a context program.

Per dynamic cycle (one CCNT value):

1. every PE with a fresh context entry reads its operands — local RF
   slots, or a neighbour's out-port, which exposes the RF value selected
   by *that* PE's ``out_addr`` field — and starts its operation,
2. operations finishing this cycle present their compare *status* to
   the C-Box, which executes its context entry and drives the
   predication broadcast (``outPE``) and branch selection (``outctrl``),
3. finishing operations commit: RF writes (gated by ``outPE`` when
   predicated), DMA loads/stores against the host heap (also gated —
   "these operations are always predicated ... to prevent stalls",
   Section V-D),
4. the CCU computes the next CCNT (increment, jump, or halt).

Register files start zero-initialised; live-in locals are written by the
host before cycle 0 (Section IV-A.3).

Two backends share this front door: the per-cycle *interpreter*
below (the reference semantics) and the ahead-of-time *compiled*
backend in :mod:`repro.sim.compiled` (``backend="compiled"``).  Both
produce identical :class:`RunResult`s, live-outs and heap contents;
energy is accumulated in integer micro-units
(:data:`repro.arch.operations.ENERGY_SCALE`) so the totals compare
bit-equal across backends regardless of summation order.  Every
production path simulates on :data:`DEFAULT_SIM_BACKEND`; the
interpreter is the oracle and the only backend that calls
``cycle_hook``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.arch.cbox import CBoxState
from repro.arch.composition import Composition
from repro.arch.operations import ENERGY_SCALE, OPS, energy_units, wrap32
from repro.context.words import ContextProgram, PEContext
from repro.obs import get_metrics, get_tracer
from repro.sim.memory import Heap

__all__ = [
    "CGRASimulator",
    "RunResult",
    "SimulationError",
    "SIM_BACKENDS",
    "DEFAULT_SIM_BACKEND",
    "DEFAULT_MAX_CYCLES",
]

#: runaway-loop bound when the caller does not tighten it
DEFAULT_MAX_CYCLES = 50_000_000

#: accepted ``backend=`` values
SIM_BACKENDS = ("interpreter", "compiled")

#: the backend every production path (jobs, server, eval, explorer,
#: mutation oracle) simulates on; the interpreter stays the reference
DEFAULT_SIM_BACKEND = "compiled"


class SimulationError(Exception):
    """Inconsistent context program or runaway execution."""


@dataclass
class _InFlight:
    """An operation in execution (commits after ``remaining`` cycles)."""

    entry: PEContext
    operands: Tuple[int, ...]
    remaining: int


@dataclass
class RunResult:
    cycles: int
    #: per-PE dynamic operation counts
    ops_executed: List[int]
    #: total abstract energy (sum of per-op energies, Fig. 9 scale)
    energy: float
    #: dynamic branch count (taken conditional branches)
    branches_taken: int


class CGRASimulator:
    def __init__(
        self,
        comp: Composition,
        program: ContextProgram,
        heap: Optional[Heap] = None,
        *,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        backend: str = "interpreter",
    ) -> None:
        if backend not in SIM_BACKENDS:
            raise ValueError(
                f"unknown simulator backend {backend!r} "
                f"(expected one of {SIM_BACKENDS})"
            )
        if program.n_cycles > comp.context_size:
            raise SimulationError(
                f"program needs {program.n_cycles} contexts, composition "
                f"provides {comp.context_size}"
                + _err_suffix(program)
            )
        self.comp = comp
        self.program = program
        self.heap = heap if heap is not None else Heap()
        self.max_cycles = max_cycles
        self.backend = backend
        self.rf: List[List[int]] = [
            [0] * pe.regfile_size for pe in comp.pes
        ]
        self.cbox = CBoxState(comp.cbox_slots)
        #: optional per-cycle probe (interpreter backend only): called as
        #: ``cycle_hook(ccnt)`` after the commit phase of every cycle,
        #: with ``self.rf`` / ``self.cbox`` / ``self.heap`` reflecting the
        #: post-commit state.  Used by the fault-injection harness
        #: (repro.verify.mutate) for weak-mutation state tracing.
        self.cycle_hook = None

    # -- host interface ----------------------------------------------------

    def write_livein(self, pe: int, slot: int, value: int) -> None:
        self.rf[pe][slot] = wrap32(value)

    def read_liveout(self, pe: int, slot: int) -> int:
        return self.rf[pe][slot]

    # -- execution ------------------------------------------------------------

    def run(self, start_ccnt: int = 0) -> RunResult:
        if self.cycle_hook is not None and self.backend != "interpreter":
            raise ValueError(
                f"cycle_hook needs the interpreter backend, not "
                f"{self.backend!r}"
            )
        tracer = get_tracer()
        with tracer.span(
            "sim.run",
            kernel=self.program.kernel_name,
            composition=self.program.composition_name,
            backend=self.backend,
        ):
            if self.backend == "compiled":
                from repro.sim.compiled import compile_program

                compiled = compile_program(self.program, self.comp)
                result = compiled.execute(
                    self.rf,
                    self.heap,
                    self.cbox.bits,
                    start_ccnt=start_ccnt,
                    max_cycles=self.max_cycles,
                    tracer=tracer,
                )
            else:
                result = self._run(start_ccnt, tracer)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("sim.cycles", result.cycles)
            metrics.inc("sim.branches.taken", result.branches_taken)
            metrics.inc("sim.ops.executed", sum(result.ops_executed))
            metrics.inc("sim.energy", result.energy)
            metrics.inc("sim.runs", backend=self.backend)
        return result

    def _err(self, message: str) -> SimulationError:
        return SimulationError(message + _err_suffix(self.program))

    def _run(self, start_ccnt: int, tracer) -> RunResult:
        comp, program = self.comp, self.program
        n_pes = comp.n_pes
        # context-residency profile: visits per CCNT value — where the
        # dynamic cycles go, at context granularity (None when inert)
        observing = tracer.enabled or get_metrics().enabled
        visits: Optional[List[int]] = (
            [0] * program.n_cycles if observing else None
        )
        # non-pipelined PEs hold at most one in-flight operation;
        # pipelined PEs may hold several (Section VII pipeline stages)
        in_flight: List[List[_InFlight]] = [[] for _ in range(n_pes)]
        ops_executed = [0] * n_pes
        energy = 0  # integer micro-units (ENERGY_SCALE)
        branches_taken = 0
        ccnt = start_ccnt
        cycles = 0

        while True:
            if cycles >= self.max_cycles:
                raise self._err(
                    f"exceeded {self.max_cycles} cycles (runaway loop?)"
                )
            if not 0 <= ccnt < program.n_cycles:
                raise self._err(f"CCNT {ccnt} out of program range")
            cycles += 1
            if visits is not None:
                visits[ccnt] += 1

            # ---- phase 1: operand reads + issue -------------------------
            out_values: Dict[int, int] = {}
            for pe in range(n_pes):
                entry = program.pe_contexts[pe][ccnt]
                if entry is not None and entry.out_addr is not None:
                    out_values[pe] = self.rf[pe][entry.out_addr]

            for pe in range(n_pes):
                entry = program.pe_contexts[pe][ccnt]
                if entry is None or entry.opcode == "NOP":
                    continue
                if in_flight[pe] and not comp.pes[pe].pipelined:
                    raise self._err(
                        f"PE {pe} issued {entry.opcode} at ccnt {ccnt} "
                        "while busy"
                    )
                operands = []
                for sel in entry.srcs:
                    if sel.is_local:
                        operands.append(self.rf[pe][sel.slot])
                    else:
                        if sel.pe not in out_values:
                            raise self._err(
                                f"PE {pe} reads PE {sel.pe}'s out-port at "
                                f"ccnt {ccnt}, but no value is exposed"
                            )
                        if not comp.interconnect.has_link(sel.pe, pe):
                            raise self._err(
                                f"PE {pe} has no input from PE {sel.pe}"
                            )
                        operands.append(out_values[sel.pe])
                in_flight[pe].append(
                    _InFlight(
                        entry=entry,
                        operands=tuple(operands),
                        remaining=entry.duration,
                    )
                )
                ops_executed[pe] += 1
                energy += energy_units(comp.pes[pe].energy(entry.opcode))

            # ---- phase 2: statuses of finishing compares + C-Box --------
            statuses: List[Optional[int]] = [None] * n_pes
            finishing: List[Tuple[int, _InFlight]] = []
            for pe in range(n_pes):
                done_here = 0
                still: List[_InFlight] = []
                for flight in in_flight[pe]:
                    flight.remaining -= 1
                    if flight.remaining == 0:
                        done_here += 1
                        finishing.append((pe, flight))
                        spec = OPS[flight.entry.opcode]
                        if spec.produces_status:
                            statuses[pe] = spec.apply(*flight.operands)
                    else:
                        still.append(flight)
                if done_here > 1:
                    raise self._err(
                        f"PE {pe} finishes {done_here} operations in one "
                        "cycle (single write port)"
                    )
                in_flight[pe] = still

            cbox_entry = program.cbox_contexts[ccnt]
            out_pe: Optional[int] = None
            out_ctrl: Optional[int] = None
            if cbox_entry is not None:
                out_pe, out_ctrl = self.cbox.step(cbox_entry, statuses)

            # ---- phase 3: commits -----------------------------------------
            for pe, flight in finishing:
                entry = flight.entry
                if entry.predicated:
                    if out_pe is None:
                        raise self._err(
                            f"predicated {entry.opcode} on PE {pe} committed "
                            f"at ccnt {ccnt} without a predication signal"
                        )
                    if out_pe == 0:
                        continue  # squashed
                self._commit(pe, entry, flight.operands)

            if self.cycle_hook is not None:
                self.cycle_hook(ccnt)

            # ---- phase 4: CCU ------------------------------------------------
            ccu = program.ccu_contexts[ccnt]
            nxt = ccu.next_ccnt(ccnt, out_ctrl)
            if nxt is None:
                if any(in_flight[pe] for pe in range(n_pes)):
                    raise self._err("halt with operations in flight")
                if visits is not None:
                    emit_context_profile(tracer, program, visits, cycles)
                return RunResult(
                    cycles=cycles,
                    ops_executed=ops_executed,
                    energy=energy / ENERGY_SCALE,
                    branches_taken=branches_taken,
                )
            if nxt != ccnt + 1:
                branches_taken += 1
            ccnt = nxt

    def _commit(self, pe: int, entry: PEContext, operands: Tuple[int, ...]) -> None:
        opcode = entry.opcode
        if opcode == "CONST":
            assert entry.immediate is not None and entry.dest_slot is not None
            self.rf[pe][entry.dest_slot] = wrap32(entry.immediate)
            return
        if opcode == "DMA_LOAD":
            assert entry.immediate is not None and entry.dest_slot is not None
            value = self.heap.load(entry.immediate, operands[0])
            self.rf[pe][entry.dest_slot] = value
            return
        if opcode == "DMA_STORE":
            assert entry.immediate is not None
            self.heap.store(entry.immediate, operands[0], operands[1])
            return
        spec = OPS[opcode]
        if spec.produces_status:
            return  # status was routed to the C-Box in phase 2
        if spec.produces_value:
            assert entry.dest_slot is not None, opcode
            self.rf[pe][entry.dest_slot] = spec.apply(*operands)


def _err_suffix(program: ContextProgram) -> str:
    """Context appended to every :class:`SimulationError` — grid runs
    over many kernels x compositions must say which cell died."""
    return (
        f" [kernel={program.kernel_name!r}, "
        f"composition={program.composition_name!r}]"
    )


def emit_context_profile(
    tracer, program: ContextProgram, visits: List[int], cycles: int
) -> None:
    """Report where the dynamic cycles went, per context region.

    Contiguous runs of visited contexts with identical visit counts
    form one region (a straight-line stretch executed N times —
    loop bodies stand out as high-N regions); the per-region cycle
    totals go to the tracer and the hottest contexts to metrics.
    Shared by both backends.
    """
    regions: List[Tuple[int, int, int]] = []  # (first, last, visits)
    for ccnt, n in enumerate(visits):
        if n == 0:
            continue
        if regions and regions[-1][1] == ccnt - 1 and regions[-1][2] == n:
            regions[-1] = (regions[-1][0], ccnt, n)
        else:
            regions.append((ccnt, ccnt, n))
    metrics = get_metrics()
    if metrics.enabled:
        metrics.observe("sim.run.cycles", cycles)
        for first, last, n in regions:
            metrics.observe("sim.region.cycles", (last - first + 1) * n)
    if tracer is not None and tracer.enabled:
        tracer.event(
            "sim.profile",
            kernel=program.kernel_name,
            cycles=cycles,
            regions=[
                {
                    "contexts": [first, last],
                    "visits": n,
                    "cycles": (last - first + 1) * n,
                }
                for first, last, n in regions
            ],
        )
