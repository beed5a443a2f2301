"""Mutation fault injection: would our oracles notice a miscompile?

The harness takes a *correct* context program (scheduled and emitted
from a real kernel), applies one single-point corruption at a time —
the kind of damage an emission bug, a bitflip in a context memory or a
broken allocator would cause — and asks whether anything notices:

* **caught-static**: the independent verifier
  (:func:`repro.verify.checker.verify_program`) rejects the mutant;
* **caught-dynamic**: the simulator traps (``SimulationError`` /
  runaway bound) or the final architectural state (live-outs, heap,
  register files, cycle/branch/op/energy counts) diverges from the
  unmutated baseline on at least one input vector;
* **escaped**: nobody noticed — the mutant behaves identically on
  every input vector.  Escapes are the number that matters: each one
  is a class of miscompile the test suite would silently ship;
* **equivalent**: the corruption never *propagates to a use* — on
  every vector the mutant follows the same CCNT path and every
  executed operation consumes exactly the same operand values as the
  baseline (so stores, branch decisions and live-outs are identical
  too).  A wrong value that is overwritten before anything reads it
  is unobservable by any oracle, however strong; such mutants are
  reported separately and excluded from the kill-rate denominator
  (the standard mutation-score adjustment for equivalent mutants).

Eight systematic operator families (single mutation point each):

====================  =====================================================
``branch_retarget``   move a CCU branch target by ±1 context
``ccu_kind``          change a branch kind (cond→uncond, drop a branch,
                      unlock a HALT)
``pred_flip``         flip a pWRITE predication bit
``operand_swap``      retarget an operand selector to a sibling RF slot or
                      a different neighbour port
``copy_drop``         drop a MOVE (keep the cell, lose the RF write)
``copy_dup``          re-issue a MOVE in a later free cell where the copy
                      is stale or clobbers a newer value
``rf_perturb``        shift a destination / out-port RF index by one
``cbox_corrupt``      corrupt a C-Box combine: swapped function, swapped
                      complementary pair, inverted or mispointed output
====================  =====================================================

Classification compares *full architectural state* — the standard
fault-injection oracle — so a mutant only escapes if it is
indistinguishable in every register, heap word and counter on every
vector.  See docs/testing.md for how to triage an escape.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.arch.cbox import FRESH, FRESH_NEG, CBoxFunc, CBoxOp
from repro.arch.ccu import BranchKind, CCUEntry
from repro.arch.composition import Composition
from repro.arch.operations import OPS, wrap32
from repro.context.generator import generate_contexts
from repro.context.words import ContextProgram, PEContext
from repro.sim.machine import (
    DEFAULT_SIM_BACKEND,
    CGRASimulator,
    SimulationError,
)
from repro.sim.memory import Heap, HeapError
from repro.verify.checker import verify_program
from repro.verify.workloads import InputVector, Workload

__all__ = [
    "Mutant",
    "MutantResult",
    "CellReport",
    "CampaignReport",
    "enumerate_mutants",
    "classify_mutants",
    "run_mutation_campaign",
    "OPERATORS",
]

OPERATORS: Tuple[str, ...] = (
    "branch_retarget",
    "ccu_kind",
    "pred_flip",
    "operand_swap",
    "copy_drop",
    "copy_dup",
    "rf_perturb",
    "cbox_corrupt",
)

#: classification outcomes, in report order
OUTCOMES: Tuple[str, ...] = (
    "caught_static",
    "caught_dynamic",
    "escaped",
    "equivalent",
)


@dataclass(frozen=True)
class Mutant:
    """One corrupted program plus where/how it was corrupted."""

    operator: str
    description: str
    program: ContextProgram
    ccnt: Optional[int] = None
    pe: Optional[int] = None


@dataclass(frozen=True)
class MutantResult:
    operator: str
    description: str
    outcome: str
    #: finding codes (static), trap message or diverging vector (dynamic)
    detail: str
    ccnt: Optional[int] = None
    pe: Optional[int] = None


@dataclass
class CellReport:
    """Campaign results for one kernel × composition cell."""

    kernel: str
    composition: str
    results: List[MutantResult] = field(default_factory=list)

    @property
    def n_mutants(self) -> int:
        return len(self.results)

    def count(self, outcome: str) -> int:
        return sum(1 for r in self.results if r.outcome == outcome)

    @property
    def caught_fraction(self) -> float:
        live = self.n_mutants - self.count("equivalent")
        if not live:
            return 1.0
        return 1.0 - self.count("escaped") / live

    def escaped(self) -> List[MutantResult]:
        return [r for r in self.results if r.outcome == "escaped"]


@dataclass
class CampaignReport:
    cells: List[CellReport] = field(default_factory=list)
    #: scheduling strategy the mutated programs were built with
    scheduler_mode: str = "list"

    @property
    def n_mutants(self) -> int:
        return sum(c.n_mutants for c in self.cells)

    def count(self, outcome: str) -> int:
        return sum(c.count(outcome) for c in self.cells)

    @property
    def caught_fraction(self) -> float:
        live = self.n_mutants - self.count("equivalent")
        if not live:
            return 1.0
        return 1.0 - self.count("escaped") / live

    def escaped(self) -> List[Tuple[CellReport, MutantResult]]:
        return [(c, r) for c in self.cells for r in c.escaped()]

    def by_operator(self) -> Dict[str, Dict[str, int]]:
        table: Dict[str, Dict[str, int]] = {
            op: {o: 0 for o in OUTCOMES} for op in OPERATORS
        }
        for cell in self.cells:
            for r in cell.results:
                table[r.operator][r.outcome] += 1
        return {op: row for op, row in table.items() if sum(row.values())}

    def to_json(self) -> Dict:
        return {
            "total_mutants": self.n_mutants,
            "scheduler_mode": self.scheduler_mode,
            "caught_static": self.count("caught_static"),
            "caught_dynamic": self.count("caught_dynamic"),
            "escaped": self.count("escaped"),
            "equivalent": self.count("equivalent"),
            "caught_fraction": self.caught_fraction,
            "by_operator": self.by_operator(),
            "cells": [
                {
                    "kernel": c.kernel,
                    "composition": c.composition,
                    "mutants": c.n_mutants,
                    "caught_static": c.count("caught_static"),
                    "caught_dynamic": c.count("caught_dynamic"),
                    "escaped": c.count("escaped"),
                    "equivalent": c.count("equivalent"),
                    "caught_fraction": c.caught_fraction,
                    "escaped_mutants": [
                        dataclasses.asdict(r) for r in c.escaped()
                    ],
                }
                for c in self.cells
            ],
        }

    def render_table(self) -> str:
        rows = [
            (
                f"{c.kernel} on {c.composition}",
                c.n_mutants,
                c.count("caught_static"),
                c.count("caught_dynamic"),
                c.count("escaped"),
                c.count("equivalent"),
                f"{100 * c.caught_fraction:.1f}%",
            )
            for c in self.cells
        ]
        rows.append(
            (
                "total",
                self.n_mutants,
                self.count("caught_static"),
                self.count("caught_dynamic"),
                self.count("escaped"),
                self.count("equivalent"),
                f"{100 * self.caught_fraction:.1f}%",
            )
        )
        head = (
            "cell",
            "mutants",
            "static",
            "dynamic",
            "escaped",
            "equiv",
            "caught",
        )
        widths = [
            max(len(str(head[i])), *(len(str(r[i])) for r in rows))
            for i in range(len(head))
        ]

        def fmt(row) -> str:
            cells = [str(row[0]).ljust(widths[0])]
            cells += [str(v).rjust(w) for v, w in zip(row[1:], widths[1:])]
            return "  ".join(cells)

        lines = [fmt(head), fmt(tuple("-" * w for w in widths))]
        lines += [fmt(r) for r in rows]
        lines.append("")
        lines.append("by operator:")
        for op, counts in self.by_operator().items():
            total = sum(counts.values())
            lines.append(
                f"  {op:<16} {total:4d} mutants: "
                f"{counts['caught_static']} static, "
                f"{counts['caught_dynamic']} dynamic, "
                f"{counts['escaped']} escaped, "
                f"{counts['equivalent']} equivalent"
            )
        return "\n".join(lines)

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)


# ---------------------------------------------------------------------------
# Mutation operators
# ---------------------------------------------------------------------------


def _clone(program: ContextProgram) -> ContextProgram:
    return copy.deepcopy(program)


def _mut_branch_retarget(program: ContextProgram) -> Iterator[Mutant]:
    for ccnt, ccu in enumerate(program.ccu_contexts):
        if ccu.kind not in (BranchKind.UNCONDITIONAL, BranchKind.CONDITIONAL):
            continue
        assert ccu.target is not None
        for delta in (1, -1):
            target = ccu.target + delta
            if target < 0:
                continue
            clone = _clone(program)
            clone.ccu_contexts[ccnt] = CCUEntry(ccu.kind, target)
            yield Mutant(
                "branch_retarget",
                f"retarget {ccu.kind.value} branch {ccu.target} -> {target}",
                clone,
                ccnt=ccnt,
            )


def _mut_ccu_kind(program: ContextProgram) -> Iterator[Mutant]:
    for ccnt, ccu in enumerate(program.ccu_contexts):
        swaps: List[Tuple[CCUEntry, str]] = []
        if ccu.kind is BranchKind.CONDITIONAL:
            swaps.append(
                (
                    CCUEntry(BranchKind.UNCONDITIONAL, ccu.target),
                    "make conditional branch unconditional",
                )
            )
            swaps.append((CCUEntry(), "drop conditional branch"))
        elif ccu.kind is BranchKind.UNCONDITIONAL:
            swaps.append((CCUEntry(), "drop unconditional branch"))
        elif ccu.kind is BranchKind.HALT:
            swaps.append((CCUEntry(), "unlock HALT into fall-through"))
        for entry, what in swaps:
            clone = _clone(program)
            clone.ccu_contexts[ccnt] = entry
            yield Mutant("ccu_kind", what, clone, ccnt=ccnt)


def _mut_pred_flip(
    program: ContextProgram, obs: _Observability
) -> Iterator[Mutant]:
    for pe, lane in enumerate(program.pe_contexts):
        for ccnt, entry in enumerate(lane):
            if entry is None or entry.opcode == "NOP":
                continue
            if entry.predicated:
                # un-predicating commits the op on exactly the paths
                # where it used to be squashed; skip sites where the
                # corrupted destination is dead or masked by the
                # complementary partner of the same broadcast pair
                # (see _Observability) — those are equivalent mutants.
                if entry.dest_slot is not None:
                    commit = ccnt + entry.duration - 1
                    partner = None
                    if commit < program.n_cycles:
                        cbox = program.cbox_contexts[commit]
                        driver = (
                            cbox.out_pe_slot if cbox is not None else None
                        )
                        if driver is not None and driver >= 0:
                            partner = driver ^ 1
                    if not obs.observable(
                        pe, entry.dest_slot, commit, partner_slot=partner
                    ):
                        continue
                clone = _clone(program)
                clone.pe_contexts[pe][ccnt] = dataclasses.replace(
                    entry, predicated=False
                )
                yield Mutant(
                    "pred_flip",
                    f"unpredicate {entry.opcode}",
                    clone,
                    ccnt=ccnt,
                    pe=pe,
                )
            else:
                # only flip to predicated where no pWRITE broadcast exists
                # on the commit cycle: those mutants are real encoding
                # faults with a defined verdict; flipping an op under an
                # active always-true broadcast would be equivalent.
                final = ccnt + entry.duration - 1
                if final < program.n_cycles:
                    cbox = program.cbox_contexts[final]
                    if cbox is not None and cbox.out_pe_slot is not None:
                        continue
                clone = _clone(program)
                clone.pe_contexts[pe][ccnt] = dataclasses.replace(
                    entry, predicated=True
                )
                yield Mutant(
                    "pred_flip",
                    f"predicate {entry.opcode} without a broadcast",
                    clone,
                    ccnt=ccnt,
                    pe=pe,
                )


def _value_effect_observable(
    program: ContextProgram,
    obs: _Observability,
    pe: int,
    ccnt: int,
    entry: PEContext,
) -> bool:
    """Whether corrupting the *value computed by* ``entry`` can be seen.

    Status producers feed the C-Box, DMA ops touch the heap, and ops
    without a destination have side effects — all observable.  A plain
    value producer is observable only if its destination write is (a
    dead copy kept for its out-port exposure computes an unread value,
    so swapping its operands is an equivalent mutant).
    """
    spec = OPS.get(entry.opcode)
    if spec is None or spec.produces_status or entry.opcode.startswith("DMA"):
        return True
    if entry.dest_slot is None:
        return True
    commit = ccnt + entry.duration - 1
    return obs.observable(pe, entry.dest_slot, commit)


def _mut_operand_swap(
    program: ContextProgram, comp: Composition, obs: _Observability
) -> Iterator[Mutant]:
    for pe, lane in enumerate(program.pe_contexts):
        rf_used = program.rf_used[pe] if pe < len(program.rf_used) else 0
        for ccnt, entry in enumerate(lane):
            if entry is None or not entry.srcs:
                continue
            if not _value_effect_observable(program, obs, pe, ccnt, entry):
                continue
            for i, sel in enumerate(entry.srcs):
                if sel.is_local:
                    assert sel.slot is not None
                    sibling = sel.slot + 1
                    if sibling >= rf_used and sel.slot > 0:
                        sibling = sel.slot - 1
                    if sibling == sel.slot:
                        continue
                    new_sel = dataclasses.replace(sel, slot=sibling)
                    what = (
                        f"operand {i} of {entry.opcode}: RF slot "
                        f"{sel.slot} -> {sibling}"
                    )
                else:
                    assert sel.pe is not None
                    others = [
                        p
                        for p in comp.interconnect.sources_of(pe)
                        if p != sel.pe
                    ]
                    if not others:
                        continue
                    new_sel = dataclasses.replace(sel, pe=others[0])
                    what = (
                        f"operand {i} of {entry.opcode}: port of PE "
                        f"{sel.pe} -> PE {others[0]}"
                    )
                srcs = list(entry.srcs)
                srcs[i] = new_sel
                clone = _clone(program)
                clone.pe_contexts[pe][ccnt] = dataclasses.replace(
                    entry, srcs=tuple(srcs)
                )
                yield Mutant("operand_swap", what, clone, ccnt=ccnt, pe=pe)


def _mut_copy_drop(program: ContextProgram) -> Iterator[Mutant]:
    for pe, lane in enumerate(program.pe_contexts):
        for ccnt, entry in enumerate(lane):
            if entry is None or entry.opcode != "MOVE":
                continue
            clone = _clone(program)
            clone.pe_contexts[pe][ccnt] = PEContext(
                opcode="NOP", out_addr=entry.out_addr
            )
            yield Mutant(
                "copy_drop",
                f"drop MOVE into RF slot {entry.dest_slot}",
                clone,
                ccnt=ccnt,
                pe=pe,
            )


def _fallthrough_window(
    program: ContextProgram, start: int
) -> Iterator[int]:
    """Contexts reached from ``start`` by pure fall-through."""
    c = start
    while (
        c + 1 < program.n_cycles
        and program.ccu_contexts[c].kind is BranchKind.NONE
    ):
        c += 1
        yield c


def _successors(program: ContextProgram, ccnt: int) -> Tuple[int, ...]:
    """Dynamic successor contexts of ``ccnt`` per its CCU entry."""
    ccu = program.ccu_contexts[ccnt]
    n = program.n_cycles
    if ccu.kind is BranchKind.HALT:
        return ()
    if ccu.kind is BranchKind.UNCONDITIONAL:
        assert ccu.target is not None
        return (ccu.target,) if 0 <= ccu.target < n else ()
    succ = []
    if ccu.kind is BranchKind.CONDITIONAL:
        assert ccu.target is not None
        if 0 <= ccu.target < n:
            succ.append(ccu.target)
    if ccnt + 1 < n:
        succ.append(ccnt + 1)
    return tuple(succ)


class _Observability:
    """MAY-observe analysis: can a write into an RF cell ever be seen?

    Mutation testing's classic failure mode is the *equivalent mutant*:
    a corruption that provably cannot change behaviour on any input, so
    no oracle can ever kill it.  Since this harness demands **zero**
    escapes, operators must not emit such mutants.  Two structural
    sources dominate in emitted context programs:

    * **dead writes** — a copy whose destination slot is overwritten on
      every path before any read (the scheduler keeps the op for its
      out-port exposure; the RF write itself is dead), and
    * **complementary masking** — if-converted joins materialise both
      sides of an ``if``/``else`` into the same home slot under
      complementary pWRITE bits.  Un-predicating the *earlier* side is
      invisible: on paths where it was squashed, the complementary
      partner commits afterwards and overwrites the corruption.

    ``observable(pe, slot, t)`` walks the CCNT CFG forward from ``t``
    and reports whether some path reads the cell (local operand,
    out-port exposure, or live-out) before a write that is *guaranteed*
    to commit kills it.  Unpredicated writes always kill; a predicated
    write kills only when ``partner_slot`` names the broadcast slot it
    is driven by (the caller passes the complementary pair slot of the
    mutated op, which commits exactly on the paths where the corruption
    exists).  Everything else conservatively keeps the path alive, so a
    mutant is only dropped when it is equivalent by construction.
    """

    def __init__(self, program: ContextProgram) -> None:
        self._program = program
        n = program.n_cycles
        #: (pe, ccnt) -> slots read (operands) or exposed (out-port)
        self._reads: Dict[Tuple[int, int], set] = {}
        #: (pe, commit ccnt) -> slots written by unpredicated ops
        self._kills: Dict[Tuple[int, int], set] = {}
        #: (pe, commit ccnt) -> [(slot, broadcast slot)] for pWRITEs
        self._pred_kills: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for pe, lane in enumerate(program.pe_contexts):
            for c, e in enumerate(lane):
                if e is None:
                    continue
                reads = {
                    sel.slot
                    for sel in e.srcs
                    if sel.is_local and sel.slot is not None
                }
                if e.out_addr is not None:
                    reads.add(e.out_addr)
                if reads:
                    self._reads[(pe, c)] = reads
                if e.dest_slot is None:
                    continue
                commit = c + e.duration - 1
                if commit >= n:
                    continue
                if not e.predicated:
                    self._kills.setdefault((pe, commit), set()).add(
                        e.dest_slot
                    )
                else:
                    cbox = program.cbox_contexts[commit]
                    driver = cbox.out_pe_slot if cbox is not None else None
                    if driver is not None and driver >= 0:
                        self._pred_kills.setdefault((pe, commit), []).append(
                            (e.dest_slot, driver)
                        )
        self._liveout = set(program.liveout_map.values())
        self._memo: Dict[Tuple, bool] = {}

    def observable(
        self,
        pe: int,
        slot: int,
        from_ccnt: int,
        partner_slot: Optional[int] = None,
    ) -> bool:
        key = (pe, slot, from_ccnt, partner_slot)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        result = self._search(pe, slot, from_ccnt, partner_slot)
        self._memo[key] = result
        return result

    def _search(
        self, pe: int, slot: int, from_ccnt: int, partner_slot: Optional[int]
    ) -> bool:
        if (pe, slot) in self._liveout:
            return True
        program = self._program
        seen = set()
        work = list(_successors(program, from_ccnt))
        while work:
            c = work.pop()
            if c in seen:
                continue
            seen.add(c)
            # reads happen in the read phase, before same-cycle commits
            if slot in self._reads.get((pe, c), ()):
                return True
            killed = slot in self._kills.get((pe, c), ())
            if not killed and partner_slot is not None:
                killed = any(
                    d == slot and driver == partner_slot
                    for d, driver in self._pred_kills.get((pe, c), ())
                )
            if not killed:
                work.extend(_successors(program, c))
        return False


def _mut_copy_dup(program: ContextProgram) -> Iterator[Mutant]:
    """Re-issue a MOVE in a later free cell of the same PE.

    A duplicate is only interesting where it is *not* equivalent: the
    source slot gets redefined in between (the re-copy grabs a stale /
    newer value) or the destination slot is redefined in between (the
    duplicate clobbers a newer value).  Positions where neither holds
    re-copy an unchanged value onto an unchanged destination and are
    equivalent by construction, so they are not emitted.
    """
    for pe, lane in enumerate(program.pe_contexts):
        for ccnt, entry in enumerate(lane):
            if entry is None or entry.opcode != "MOVE":
                continue
            src = entry.srcs[0]
            if not src.is_local or entry.dest_slot is None:
                continue
            src_redefined = dest_redefined = False
            for c in _fallthrough_window(program, ccnt):
                later = lane[c]
                if later is not None and later.dest_slot is not None:
                    if later.dest_slot == src.slot:
                        src_redefined = True
                    if later.dest_slot == entry.dest_slot:
                        dest_redefined = True
                if later is None and (src_redefined or dest_redefined):
                    clone = _clone(program)
                    clone.pe_contexts[pe][c] = PEContext(
                        opcode="MOVE",
                        srcs=(src,),
                        dest_slot=entry.dest_slot,
                        duration=entry.duration,
                    )
                    yield Mutant(
                        "copy_dup",
                        f"re-issue MOVE from ccnt {ccnt} at ccnt {c}",
                        clone,
                        ccnt=c,
                        pe=pe,
                    )
                    break


def _mut_rf_perturb(
    program: ContextProgram, obs: _Observability
) -> Iterator[Mutant]:
    for pe, lane in enumerate(program.pe_contexts):
        rf_used = program.rf_used[pe] if pe < len(program.rf_used) else 0
        for ccnt, entry in enumerate(lane):
            if entry is None:
                continue
            if entry.dest_slot is not None:
                # a shifted destination has two visible effects: the
                # intended slot keeps its stale value, and the sibling
                # slot gets clobbered.  Skip only when *neither* cell
                # is ever read afterwards (and the sibling is inside
                # the allocation, so the verifier stays silent too) —
                # such a mutant is equivalent by construction.
                d = entry.dest_slot
                commit = ccnt + entry.duration - 1
                if (
                    d + 1 >= rf_used
                    or obs.observable(pe, d, commit)
                    or obs.observable(pe, d + 1, commit)
                ):
                    clone = _clone(program)
                    clone.pe_contexts[pe][ccnt] = dataclasses.replace(
                        entry, dest_slot=d + 1
                    )
                    yield Mutant(
                        "rf_perturb",
                        f"{entry.opcode} destination slot {d} -> {d + 1}",
                        clone,
                        ccnt=ccnt,
                        pe=pe,
                    )
            if entry.out_addr is not None:
                # a shifted exposure feeds a wrong value to every
                # same-cycle port consumer; skip only when no
                # consumer's own effect is observable.
                o = entry.out_addr
                emit = o + 1 >= rf_used
                if not emit:
                    for q, lane_q in enumerate(program.pe_contexts):
                        if q == pe:
                            continue
                        consumer = lane_q[ccnt]
                        if consumer is None or not any(
                            (not s.is_local) and s.pe == pe
                            for s in consumer.srcs
                        ):
                            continue
                        if _value_effect_observable(
                            program, obs, q, ccnt, consumer
                        ):
                            emit = True
                            break
                if not emit:
                    continue
                clone = _clone(program)
                clone.pe_contexts[pe][ccnt] = dataclasses.replace(
                    entry, out_addr=o + 1
                )
                yield Mutant(
                    "rf_perturb",
                    f"out-port exposure slot {o} -> {o + 1}",
                    clone,
                    ccnt=ccnt,
                    pe=pe,
                )


_FUNC_SWAP = {
    CBoxFunc.STORE: CBoxFunc.STORE_NOT,
    CBoxFunc.STORE_NOT: CBoxFunc.STORE,
    CBoxFunc.AND: CBoxFunc.OR,
    CBoxFunc.OR: CBoxFunc.AND,
    CBoxFunc.AND_NOT: CBoxFunc.OR_NOT,
    CBoxFunc.OR_NOT: CBoxFunc.AND_NOT,
}


def _cbox_slot_read_anywhere(program: ContextProgram, slot: Optional[int]) -> bool:
    """Whether any context ever consumes condition slot ``slot``."""
    if slot is None:
        return False
    for op in program.cbox_contexts:
        if op is None:
            continue
        if slot in (op.read_pos, op.read_neg, op.out_pe_slot, op.out_ctrl_slot):
            return True
    return False


def _mut_cbox_corrupt(program: ContextProgram) -> Iterator[Mutant]:
    for ccnt, op in enumerate(program.cbox_contexts):
        if op is None:
            continue
        variants: List[Tuple[CBoxOp, str]] = []

        def try_replace(what: str, **changes) -> None:
            try:
                variants.append((dataclasses.replace(op, **changes), what))
            except ValueError:
                pass  # not representable in the C-Box encoding model

        # corrupting the combine result is equivalent by construction
        # when nobody consumes it: the fresh result drives no output this
        # cycle and the written slots are never read later.
        result_consumed = (
            op.out_pe_slot in (FRESH, FRESH_NEG)
            or op.out_ctrl_slot in (FRESH, FRESH_NEG)
            or _cbox_slot_read_anywhere(program, op.write_pos)
            or _cbox_slot_read_anywhere(program, op.write_neg)
        )
        if op.func in _FUNC_SWAP and result_consumed:
            try_replace(
                f"combine {op.func.value} -> {_FUNC_SWAP[op.func].value}",
                func=_FUNC_SWAP[op.func],
            )
        if (
            op.write_pos is not None
            and op.write_neg is not None
            and (
                _cbox_slot_read_anywhere(program, op.write_pos)
                or _cbox_slot_read_anywhere(program, op.write_neg)
            )
        ):
            try_replace(
                "swap complementary write pair",
                write_pos=op.write_neg,
                write_neg=op.write_pos,
            )
        if (
            op.read_pos is not None
            and op.read_neg is not None
            and result_consumed
        ):
            try_replace(
                "swap complementary read pair",
                read_pos=op.read_neg,
                read_neg=op.read_pos,
            )
        for attr in ("out_pe_slot", "out_ctrl_slot"):
            sel = getattr(op, attr)
            if sel is None:
                continue
            if sel == FRESH:
                try_replace(f"{attr}: fresh -> fresh-negated", **{attr: FRESH_NEG})
            elif sel == FRESH_NEG:
                try_replace(f"{attr}: fresh-negated -> fresh", **{attr: FRESH})
            else:
                try_replace(
                    f"{attr}: slot {sel} -> pair partner {sel ^ 1}",
                    **{attr: sel ^ 1},
                )
        for variant, what in variants:
            clone = _clone(program)
            clone.cbox_contexts[ccnt] = variant
            yield Mutant("cbox_corrupt", what, clone, ccnt=ccnt)


def enumerate_mutants(
    program: ContextProgram, comp: Composition
) -> List[Mutant]:
    """All single-point mutants of ``program``, in deterministic order."""
    obs = _Observability(program)
    mutants: List[Mutant] = []
    mutants.extend(_mut_branch_retarget(program))
    mutants.extend(_mut_ccu_kind(program))
    mutants.extend(_mut_pred_flip(program, obs))
    mutants.extend(_mut_operand_swap(program, comp, obs))
    mutants.extend(_mut_copy_drop(program))
    mutants.extend(_mut_copy_dup(program))
    mutants.extend(_mut_rf_perturb(program, obs))
    mutants.extend(_mut_cbox_corrupt(program))
    return mutants


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

#: dynamic runaway bound: baseline cycles x factor + slack
RUNAWAY_FACTOR = 16
RUNAWAY_SLACK = 1024

_Signature = Tuple


def _rf_canary(pe: int, slot: int) -> int:
    """Deterministic non-zero power-up pattern for one RF cell.

    Real register files power up to zero, which hides an entire fault
    class: a dropped or misdirected write of a zero *looks* committed.
    Fault-injection runs therefore pre-fill every cell with a distinct
    canary (baseline and mutant see the same pattern, so legal programs
    — which never read a cell before writing it — are unaffected, while
    a mutant that leaves a cell unwritten exposes the canary).
    """
    return wrap32(0x5EED0000 ^ (pe << 16) ^ (slot * 2654435761))


def _initial_rf(
    program: ContextProgram, comp: Composition, vector: InputVector
) -> Tuple[Tuple[int, ...], ...]:
    """Register-file state right before cycle 0: canaries + live-ins."""
    rf = [
        [_rf_canary(pe, slot) for slot in range(desc.regfile_size)]
        for pe, desc in enumerate(comp.pes)
    ]
    by_name = {var.name: loc for var, loc in program.livein_map.items()}
    for name, value in vector.livein.items():
        pe, slot = by_name[name]
        rf[pe][slot] = wrap32(value)
    return tuple(tuple(row) for row in rf)


def _use_trace(
    program: ContextProgram,
    raw_trace: Sequence[Tuple[int, Tuple[Tuple[int, ...], ...]]],
    initial_rf: Tuple[Tuple[int, ...], ...],
    skip: Optional[Tuple[int, int]] = None,
) -> List:
    """Derive the *use trace* from a raw per-cycle register-file trace.

    One record per executed cycle: the CCNT plus, for every PE issuing
    an operation there, the opcode and the operand values it consumed.
    Operand reads happen before same-cycle commits, so the values come
    from the register files as of the *end of the previous cycle*.

    ``skip`` names one ``(pe, ccnt)`` cell whose records are omitted —
    the mutated op itself.  Its own reads changing is the *injection*;
    observability requires the corruption to reach some other use.
    """
    uses: List = []
    prev = initial_rf
    for ccnt, rf in raw_trace:
        row = []
        for pe, lane in enumerate(program.pe_contexts):
            if skip is not None and skip == (pe, ccnt):
                continue
            entry = lane[ccnt]
            if entry is None or entry.opcode == "NOP":
                continue
            vals = []
            for sel in entry.srcs:
                if sel.is_local:
                    vals.append(prev[pe][sel.slot])
                else:
                    exposer = program.pe_contexts[sel.pe][ccnt]
                    assert exposer is not None
                    assert exposer.out_addr is not None
                    vals.append(prev[sel.pe][exposer.out_addr])
            row.append((pe, entry.opcode, tuple(vals)))
        uses.append((ccnt, tuple(row)))
        prev = rf
    return uses


def _execute(
    program: ContextProgram,
    comp: Composition,
    vector: InputVector,
    *,
    max_cycles: int,
    trace: Optional[List] = None,
) -> _Signature:
    """Run one invocation; return the full architectural-state signature.

    When ``trace`` is a list, the run uses the interpreter's per-cycle
    hook to append ``(ccnt, register files)`` after every executed
    cycle — the raw material for the weak-mutation use-trace check.
    """
    heap = Heap()
    for ref in program.arrays:
        data = vector.arrays.get(ref.name)
        if data is None:
            raise KeyError(f"vector missing contents for array {ref.name!r}")
        heap.allocate(ref.handle, list(data))
    # only the interpreter calls cycle_hook, so trace replays run there
    backend = DEFAULT_SIM_BACKEND if trace is None else "interpreter"
    sim = CGRASimulator(
        comp, program, heap, max_cycles=max_cycles, backend=backend
    )
    if trace is not None:

        def hook(ccnt: int) -> None:
            trace.append((ccnt, tuple(tuple(rf) for rf in sim.rf)))

        sim.cycle_hook = hook
    for pe, rf in enumerate(sim.rf):
        for slot in range(len(rf)):
            rf[slot] = _rf_canary(pe, slot)
    by_name = {var.name: loc for var, loc in program.livein_map.items()}
    for name, value in vector.livein.items():
        pe, slot = by_name[name]
        sim.write_livein(pe, slot, value)
    run = sim.run()
    results = tuple(
        (var.name, sim.read_liveout(pe, slot))
        for var, (pe, slot) in sorted(
            program.liveout_map.items(), key=lambda kv: kv[0].name
        )
    )
    heap_state = tuple(
        (ref.name, tuple(heap.array(ref.handle))) for ref in program.arrays
    )
    rf_state = tuple(tuple(rf) for rf in sim.rf)
    return (
        results,
        heap_state,
        run.cycles,
        run.branches_taken,
        tuple(run.ops_executed),
        run.energy,
        rf_state,
    )


def classify_mutants(
    program: ContextProgram,
    comp: Composition,
    vectors: Sequence[InputVector],
    *,
    mutants: Optional[Sequence[Mutant]] = None,
) -> List[MutantResult]:
    """Classify every mutant of ``program`` against the baseline runs.

    The dynamic oracle re-executes each mutant once per input vector on
    :data:`~repro.sim.machine.DEFAULT_SIM_BACKEND` and stops at the
    first vector that traps or diverges.
    """
    from repro.obs import get_metrics, get_tracer

    if mutants is None:
        mutants = enumerate_mutants(program, comp)

    baseline_findings = verify_program(program, comp)
    if baseline_findings:
        raise ValueError(
            "baseline program fails verification; refusing to classify "
            f"mutants: {baseline_findings[0].render()}"
        )
    baselines: List[_Signature] = []
    bound = 0
    for vector in vectors:
        sig = _execute(
            program,
            comp,
            vector,
            max_cycles=RUNAWAY_FACTOR * 10_000_000,
        )
        baselines.append(sig)
        bound = max(bound, sig[2])
    max_cycles = RUNAWAY_FACTOR * bound + RUNAWAY_SLACK

    # lazily computed per-vector baseline state traces for the
    # weak-mutation propagation check (only would-be escapes need them)
    baseline_raws: Dict[int, List] = {}

    def baseline_raw(i: int) -> List:
        if i not in baseline_raws:
            raw: List = []
            _execute(
                program,
                comp,
                vectors[i],
                max_cycles=max_cycles,
                trace=raw,
            )
            baseline_raws[i] = raw
        return baseline_raws[i]

    metrics = get_metrics()
    results: List[MutantResult] = []
    with get_tracer().span(
        "verify.mutate",
        kernel=program.kernel_name,
        composition=program.composition_name,
        mutants=len(mutants),
    ):
        for mutant in mutants:
            outcome, detail = _classify_one(
                mutant,
                program,
                comp,
                vectors,
                baselines,
                max_cycles,
                baseline_raw,
            )
            results.append(
                MutantResult(
                    operator=mutant.operator,
                    description=mutant.description,
                    outcome=outcome,
                    detail=detail,
                    ccnt=mutant.ccnt,
                    pe=mutant.pe,
                )
            )
            if metrics.enabled:
                metrics.inc(
                    "verify.mutants", outcome=outcome, operator=mutant.operator
                )
    return results


def _classify_one(
    mutant: Mutant,
    program: ContextProgram,
    comp: Composition,
    vectors: Sequence[InputVector],
    baselines: Sequence[_Signature],
    max_cycles: int,
    baseline_raw,
) -> Tuple[str, str]:
    findings = verify_program(mutant.program, comp)
    if findings:
        codes = sorted({f.code for f in findings})
        return "caught_static", ",".join(codes)
    for i, (vector, baseline) in enumerate(zip(vectors, baselines)):
        try:
            sig = _execute(
                mutant.program,
                comp,
                vector,
                max_cycles=max_cycles,
            )
        except (
            SimulationError,
            HeapError,
            RuntimeError,
            IndexError,
            KeyError,
        ) as exc:
            return "caught_dynamic", f"trap on vector {i}: {exc}"
        if sig != baseline:
            return "caught_dynamic", f"diverges on vector {i}"
    # Weak-mutation propagation check: the final state matched
    # everywhere, so replay with per-cycle tracing.  A vector shows no
    # observable difference when either
    #   * the full per-cycle machine state is identical (the strongest
    #     state-based oracle sees nothing — differing wire values with
    #     identical results are not architectural state), or
    #   * the *use traces* match once the mutated op's own operands are
    #     masked (its reads changing is the injection itself; the
    #     corruption must reach some other read, store or branch to be
    #     observable — a dead init overwritten before its first read or
    #     a rematerialised constant landing on its own value never does).
    # A mutant unobservable on every vector is equivalent, not escaped.
    skip = None
    if mutant.pe is not None and mutant.ccnt is not None:
        skip = (mutant.pe, mutant.ccnt)
    for i, vector in enumerate(vectors):
        raw: List = []
        _execute(
            mutant.program,
            comp,
            vector,
            max_cycles=max_cycles,
            trace=raw,
        )
        base_raw = baseline_raw(i)
        if raw == base_raw:
            continue
        init = _initial_rf(program, comp, vector)
        mut_uses = _use_trace(mutant.program, raw, init, skip=skip)
        base_uses = _use_trace(program, base_raw, init, skip=skip)
        if mut_uses != base_uses:
            return "escaped", (
                f"propagates to a use on vector {i} but the final "
                "state matches"
            )
    return "equivalent", (
        f"never propagates beyond the mutation site on any of "
        f"{len(vectors)} vectors"
    )


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------


def run_mutation_campaign(
    workloads: Sequence[Workload],
    comps: Sequence[Composition],
    *,
    scheduler_mode: str = "list",
    progress=None,
) -> CampaignReport:
    """Mutate every workload × composition cell and classify everything.

    ``scheduler_mode`` is a campaign axis: ``"modulo"`` mutates the
    software-pipelined programs instead of the list-scheduled ones, so
    the same verifier wall is measured around both scheduler modes.

    ``progress`` (optional) is called with a one-line status string per
    cell — the CLI passes ``print``.
    """
    from repro.obs.timing import timed
    from repro.sched.scheduler import schedule_kernel
    from repro.sched.strategy import validate_scheduler_mode

    validate_scheduler_mode(scheduler_mode)
    report = CampaignReport(scheduler_mode=scheduler_mode)
    with timed(
        "verify.campaign",
        workloads=len(workloads),
        compositions=len(comps),
        scheduler_mode=scheduler_mode,
    ):
        for workload in workloads:
            kernel = workload.build()
            for comp in comps:
                with timed(
                    "verify.campaign.cell",
                    kernel=workload.name,
                    composition=comp.name,
                ):
                    schedule = schedule_kernel(
                        kernel, comp, scheduler_mode=scheduler_mode
                    )
                    program = generate_contexts(schedule, comp, kernel)
                    results = classify_mutants(program, comp, workload.vectors)
                cell = CellReport(
                    kernel=workload.name, composition=comp.name, results=results
                )
                report.cells.append(cell)
                if progress is not None:
                    progress(
                        f"{workload.name} on {comp.name}: {cell.n_mutants} "
                        f"mutants, {cell.count('caught_static')} static, "
                        f"{cell.count('caught_dynamic')} dynamic, "
                        f"{cell.count('escaped')} escaped"
                    )
    return report
