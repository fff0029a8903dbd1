"""The differential oracle: cell matrix, fault legs, classification."""

from pathlib import Path

import pytest

from repro.fuzz import (
    InjectedFault,
    OracleCell,
    chaos_edge,
    failing_solver,
    generate_spec,
    run_oracle,
    sample_cells,
)
from repro.fuzz.oracle import BASELINE
from repro.spec import load_spec
from repro.spec.api import synthesize

CELLS = [BASELINE, OracleCell("mmap", 0)]
WIDE_STAR = (
    Path(__file__).parent.parent.parent / "examples" / "specs"
    / "wide_star16.toml"
)


class TestSampleCells:
    def test_baseline_always_first(self):
        for seed in range(4):
            cells = sample_cells("mixed", seed, max_cells=4)
            assert cells[0] == BASELINE
            assert len(cells) <= 4
            assert len(set(cells)) == len(cells)

    def test_deterministic(self):
        assert sample_cells("deep", 9, 4) == sample_cells("deep", 9, 4)


class TestRunOracle:
    def test_clean_spec_passes_all_legs(self):
        # check_faults=True also exercises the rollback and
        # checkpoint-resume legs on the way to "ok".
        spec = generate_spec(7, "mixed")
        report = run_oracle(spec, CELLS, check_faults=True)
        assert report.outcome == "ok", report.detail
        assert not report.failed
        assert {c["cell"] for c in report.cells} == {
            c.cell_id for c in CELLS
        }

    def test_infeasible_agreement_is_not_a_failure(self):
        for seed in range(40):
            spec = generate_spec(seed, "infeasible")
            report = run_oracle(spec, CELLS, check_faults=False)
            assert report.outcome in ("ok", "infeasible"), report.detail
            if report.outcome == "infeasible":
                assert not report.failed
                return
        pytest.fail("no infeasible spec in the first 40 seeds")

    def test_chaos_corruption_is_caught_as_divergence(self):
        spec = generate_spec(1, "mixed")
        report = run_oracle(spec, CELLS, check_faults=False, chaos_on=0)
        assert report.outcome == "divergence"
        assert report.check == "identical:mmap/w0"
        assert report.failed


class TestFaultInjection:
    def test_failing_solver_raises_on_nth_edge(self):
        spec = generate_spec(7, "mixed")
        base = spec.with_options(**BASELINE.overrides())
        with failing_solver(fail_on=0) as counter:
            with pytest.raises(InjectedFault):
                synthesize(base)
        assert counter["calls"] == 1

    def test_solver_restored_after_fault(self):
        spec = generate_spec(7, "mixed")
        base = spec.with_options(**BASELINE.overrides())
        with failing_solver(fail_on=0):
            with pytest.raises(InjectedFault):
                synthesize(base)
        db_a = synthesize(base).database
        db_b = synthesize(base).database
        assert db_a.identical_to(db_b)

    def test_chaos_edge_corrupts_the_same_edge_at_any_worker_count(self):
        # wide_star16's 16 edges fan out on a pool at workers=2; chaos
        # counts commits in the parent, so both runs hit edge #14.
        spec = load_spec(WIDE_STAR)
        databases, counters = [], []
        for workers in (0, 2):
            with chaos_edge(14) as counter:
                result = synthesize(spec.with_options(workers=workers))
            databases.append(result.database)
            counters.append(counter["calls"])
        assert counters == [16, 16]
        assert databases[0].identical_to(databases[1])
        assert not databases[0].identical_to(synthesize(spec).database)
