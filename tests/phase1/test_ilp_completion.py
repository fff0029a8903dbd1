"""Algorithm 1 — ILP view completion (Example 4.1)."""

import pytest

from repro.phase1.assignment import ViewAssignment
from repro.phase1.combos import ComboCatalog
from repro.phase1.ilp_completion import complete_with_ilp
from repro.relational.relation import Relation


@pytest.fixture
def figure_1():
    r1 = Relation.from_columns(
        {
            "pid": [1, 2, 3, 4, 5, 6, 7, 8, 9],
            "Age": [75, 75, 25, 25, 24, 10, 10, 30, 30],
            "Rel": ["Owner"] * 4 + ["Spouse", "Child", "Child", "Owner", "Owner"],
            "Multi": [0, 1, 0, 1, 0, 1, 1, 0, 1],
        },
        key="pid",
    )
    r2 = Relation.from_columns(
        {"hid": [1, 2, 3, 4, 5, 6], "Area": ["Chicago"] * 4 + ["NYC"] * 2},
        key="hid",
    )
    return r1, r2


def _count(r1, assignment, cc):
    total = 0
    for i in range(len(r1)):
        merged = r1.row(i)
        values = assignment.values(i)
        if values:
            merged.update(values)
        if cc.predicate.matches_row(merged):
            total += 1
    return total


def _ccs():
    from repro.constraints.parser import parse_cc

    return [
        parse_cc("|Rel == 'Owner' & Area == 'Chicago'| = 4"),
        parse_cc("|Rel == 'Owner' & Area == 'NYC'| = 2"),
        parse_cc("|Age <= 24 & Area == 'Chicago'| = 3"),
        parse_cc("|Multi == 1 & Area == 'Chicago'| = 4"),
    ]


class TestCompleteWithIlp:
    def test_example_4_1_exact(self, figure_1):
        r1, r2 = figure_1
        catalog = ComboCatalog.from_relation(r2)
        assignment = ViewAssignment(n=9, r2_attrs=catalog.attrs)
        stats = complete_with_ilp(
            r1, ["Age", "Rel", "Multi"], catalog, _ccs(), assignment,
            marginals="all",
        )
        assert stats.solver_status == "optimal"
        assert stats.solver_objective == pytest.approx(0.0)
        # With all-way marginals every row is assigned.
        assert assignment.completion_fraction() == 1.0
        for cc in _ccs():
            assert _count(r1, assignment, cc) == cc.target

    def test_without_marginals_may_leave_rows(self, figure_1):
        """The plain baseline may leave rows unassigned (Section 4.1)."""
        r1, r2 = figure_1
        catalog = ComboCatalog.from_relation(r2)
        assignment = ViewAssignment(n=9, r2_attrs=catalog.attrs)
        complete_with_ilp(
            r1, ["Age", "Rel", "Multi"], catalog, _ccs(), assignment,
            marginals="none",
        )
        # CC rows are still satisfied among assigned rows.
        for cc in _ccs():
            assert _count(r1, assignment, cc) == cc.target
        assert assignment.completion_fraction() <= 1.0

    def test_no_ccs_is_a_noop(self, figure_1):
        r1, r2 = figure_1
        catalog = ComboCatalog.from_relation(r2)
        assignment = ViewAssignment(n=9, r2_attrs=catalog.attrs)
        stats = complete_with_ilp(
            r1, ["Age", "Rel", "Multi"], catalog, [], assignment
        )
        assert stats.num_variables == 0
        assert assignment.completion_fraction() == 0.0

    def test_inconsistent_ccs_soft_mode_absorbs(self, figure_1):
        """An over-demanding CC yields slack, not failure."""
        from repro.constraints.parser import parse_cc

        r1, r2 = figure_1
        catalog = ComboCatalog.from_relation(r2)
        assignment = ViewAssignment(n=9, r2_attrs=catalog.attrs)
        impossible = [parse_cc("|Rel == 'Owner' & Area == 'Chicago'| = 50")]
        stats = complete_with_ilp(
            r1, ["Age", "Rel", "Multi"], catalog, impossible, assignment,
            marginals="all",
        )
        assert stats.solver_status == "optimal"
        assert stats.solver_objective > 0  # slack was needed
        # All six owners got Chicago; 50 was impossible.
        assert _count(r1, assignment, impossible[0]) == 6

    def test_inconsistent_ccs_strict_mode_raises(self, figure_1):
        from repro.constraints.parser import parse_cc
        from repro.errors import InfeasibleError

        r1, r2 = figure_1
        catalog = ComboCatalog.from_relation(r2)
        assignment = ViewAssignment(n=9, r2_attrs=catalog.attrs)
        impossible = [parse_cc("|Rel == 'Owner' & Area == 'Chicago'| = 50")]
        with pytest.raises(InfeasibleError):
            complete_with_ilp(
                r1, ["Age", "Rel", "Multi"], catalog, impossible, assignment,
                marginals="all", soft_ccs=False,
            )

    def test_relevant_marginals_only_cover_matching_bins(self, figure_1):
        from repro.constraints.parser import parse_cc

        r1, r2 = figure_1
        catalog = ComboCatalog.from_relation(r2)
        assignment = ViewAssignment(n=9, r2_attrs=catalog.attrs)
        ccs = [parse_cc("|Rel == 'Owner' & Area == 'Chicago'| = 4")]
        stats = complete_with_ilp(
            r1, ["Age", "Rel", "Multi"], catalog, ccs, assignment,
            marginals="relevant",
        )
        # Owner bins only: fewer bin rows than the 8 distinct types.
        assert 0 < stats.num_bin_rows < 8
        assert _count(r1, assignment, ccs[0]) == 4

    def test_expired_time_limit_reports_the_limit(self, figure_1,
                                                  monkeypatch):
        """A budget that expires with no incumbent must blame the time
        limit, not claim infeasibility or a solver bug."""
        import repro.phase1.ilp_completion as module
        from repro.errors import SolverError
        from repro.solver.result import SolveResult, SolveStatus

        monkeypatch.setattr(
            module, "solve_model",
            lambda *a, **k: SolveResult(SolveStatus.ITERATION_LIMIT),
        )
        r1, r2 = figure_1
        catalog = ComboCatalog.from_relation(r2)
        assignment = ViewAssignment(n=9, r2_attrs=catalog.attrs)
        with pytest.raises(SolverError, match="time limit"):
            complete_with_ilp(
                r1, ["Age", "Rel", "Multi"], catalog, _ccs(), assignment,
                marginals="all", time_limit=0.001,
            )

    def test_unknown_marginals_mode(self, figure_1):
        r1, r2 = figure_1
        catalog = ComboCatalog.from_relation(r2)
        assignment = ViewAssignment(n=9, r2_attrs=catalog.attrs)
        with pytest.raises(ValueError):
            complete_with_ilp(
                r1, ["Age", "Rel", "Multi"], catalog, _ccs(), assignment,
                marginals="some",
            )
