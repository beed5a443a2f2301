"""Mutation fault-injection engine: enumeration, classification, report.

The full acceptance campaign (gcd+adpcm x mesh4+irregularB, ~800
mutants) runs via ``python -m repro.verify --mutate`` in CI; these unit
tests keep the engine itself honest on the cheap gcd cell.
"""

import json

import pytest

from repro.arch.library import mesh_composition
from repro.context.generator import generate_contexts
from repro.sched.scheduler import schedule_kernel
from repro.verify import set_verify_enabled, verify_program
from repro.verify.mutate import (
    OPERATORS,
    OUTCOMES,
    CampaignReport,
    CellReport,
    MutantResult,
    classify_mutants,
    enumerate_mutants,
    run_mutation_campaign,
)
from repro.verify.workloads import get_workload


@pytest.fixture(scope="module")
def gcd_cell():
    comp = mesh_composition(4)
    workload = get_workload("gcd")
    kernel = workload.build()
    schedule = schedule_kernel(kernel, comp)
    previous = set_verify_enabled(False)
    try:
        program = generate_contexts(schedule, comp, kernel)
    finally:
        set_verify_enabled(previous)
    return workload, comp, program


class TestEnumeration:
    def test_yields_known_operators_only(self, gcd_cell):
        _, comp, program = gcd_cell
        mutants = list(enumerate_mutants(program, comp))
        assert mutants
        assert {m.operator for m in mutants} <= set(OPERATORS)

    def test_original_program_untouched(self, gcd_cell):
        _, comp, program = gcd_cell
        before = verify_program(program, comp)
        assert before == []
        for mutant in enumerate_mutants(program, comp):
            assert mutant.program is not program
        # enumeration must not have corrupted the source program
        assert verify_program(program, comp) == []

    def test_each_mutant_differs_from_original(self, gcd_cell):
        _, comp, program = gcd_cell
        for mutant in enumerate_mutants(program, comp):
            assert (
                mutant.program.pe_contexts != program.pe_contexts
                or mutant.program.cbox_contexts != program.cbox_contexts
                or mutant.program.ccu_contexts != program.ccu_contexts
            ), f"{mutant.operator}: {mutant.description} is a no-op"


class TestClassification:
    def test_gcd_mesh4_no_escapes(self, gcd_cell):
        workload, comp, program = gcd_cell
        mutants = list(enumerate_mutants(program, comp))
        results = classify_mutants(
            program, comp, workload.vectors, mutants=mutants
        )
        assert len(results) == len(mutants)
        assert {r.outcome for r in results} <= set(OUTCOMES)
        escaped = [r for r in results if r.outcome == "escaped"]
        assert not escaped, escaped

    def test_rejects_broken_baseline(self, gcd_cell):
        workload, comp, program = gcd_cell
        import copy

        from repro.arch.ccu import BranchKind, CCUEntry

        bad = copy.deepcopy(program)
        bad.ccu_contexts[0] = CCUEntry(
            BranchKind.UNCONDITIONAL, bad.n_cycles + 7
        )
        assert verify_program(bad, comp)
        with pytest.raises(ValueError, match="baseline program"):
            classify_mutants(bad, comp, workload.vectors, mutants=[])


class TestReport:
    def _cell(self):
        return CellReport(
            kernel="k",
            composition="c",
            results=[
                MutantResult("pred_flip", "a", "caught_static", ""),
                MutantResult("pred_flip", "b", "caught_dynamic", ""),
                MutantResult("operand_swap", "c", "escaped", ""),
                MutantResult("operand_swap", "d", "equivalent", ""),
            ],
        )

    def test_equivalents_excluded_from_denominator(self):
        cell = self._cell()
        # 4 mutants, 1 equivalent -> 3 live, 1 escaped -> 2/3 caught
        assert cell.caught_fraction == pytest.approx(2 / 3)

    def test_all_equivalent_counts_as_fully_caught(self):
        cell = CellReport(
            kernel="k",
            composition="c",
            results=[MutantResult("pred_flip", "a", "equivalent", "")],
        )
        assert cell.caught_fraction == 1.0

    def test_json_roundtrip(self, tmp_path):
        report = CampaignReport(cells=[self._cell()])
        path = tmp_path / "coverage.json"
        report.write_json(str(path))
        data = json.loads(path.read_text())
        assert data["total_mutants"] == 4
        assert data["escaped"] == 1
        assert data["equivalent"] == 1
        assert data["caught_fraction"] == pytest.approx(2 / 3)
        (cell,) = data["cells"]
        assert cell["kernel"] == "k"
        assert cell["caught_static"] == 1
        assert len(cell["escaped_mutants"]) == 1

    def test_render_table_mentions_all_cells(self):
        report = CampaignReport(cells=[self._cell()])
        table = report.render_table()
        assert "k on c" in table
        assert "total" in table


def test_campaign_smoke():
    """One-cell end-to-end campaign through the public entry point."""
    report = run_mutation_campaign(
        [get_workload("gcd")], [mesh_composition(4)]
    )
    assert report.n_mutants > 0
    assert not report.escaped()
    assert report.caught_fraction == 1.0

