"""solveInvalidTuples (Algorithm 4, line 16)."""

import pytest

from repro.constraints.parser import parse_cc, parse_dc
from repro.core.metrics import dc_error, evaluate
from repro.phase1.assignment import ViewAssignment
from repro.phase1.combos import ComboCatalog
from repro.phase1.hybrid import run_phase1
from repro.phase2.fk_assignment import run_phase2
from repro.relational.relation import Relation


def _invalid_instance():
    """Three same-age rows, one Chicago-only combo, CC permits one row."""
    r1 = Relation.from_columns(
        {"pid": [0, 1, 2], "Age": [5, 5, 5], "Rel": ["Child"] * 3}, key="pid"
    )
    r2 = Relation.from_columns({"hid": [1], "Area": ["Chicago"]}, key="hid")
    ccs = [parse_cc("|Age in [0, 10] & Area == 'Chicago'| = 1")]
    return r1, r2, ccs


class TestInvalidHandling:
    def test_invalid_rows_eventually_colored(self):
        r1, r2, ccs = _invalid_instance()
        phase1 = run_phase1(r1, r2, ccs)
        assert len(phase1.assignment.invalid) == 2
        phase2 = run_phase2(
            r1, r2, [], phase1.assignment, phase1.catalog, "hid", ccs=ccs
        )
        assert phase2.stats.num_invalid_handled == 2
        keys = set(phase2.r2_hat.column("hid").tolist())
        assert set(phase2.r1_hat.column("hid").tolist()) <= keys
        assert not phase1.assignment.invalid  # drained

    def test_invalid_rows_respect_dcs(self):
        r1, r2, ccs = _invalid_instance()
        dcs = [parse_dc("not(t1.Rel == 'Child' & t2.Rel == 'Child')")]
        phase1 = run_phase1(r1, r2, ccs)
        phase2 = run_phase2(
            r1, r2, dcs, phase1.assignment, phase1.catalog, "hid", ccs=ccs
        )
        assert dc_error(phase2.r1_hat, "hid", dcs) == 0.0
        # pairwise conflicting children → three distinct households
        assert len(set(phase2.r1_hat.column("hid"))) == 3

    def test_join_view_still_consistent(self):
        r1, r2, ccs = _invalid_instance()
        phase1 = run_phase1(r1, r2, ccs)
        phase2 = run_phase2(
            r1, r2, [], phase1.assignment, phase1.catalog, "hid", ccs=ccs
        )
        report = evaluate(phase2.r1_hat, phase2.r2_hat, "hid", ccs, [])
        # Invalid rows took the only existing key (no DCs forbid it), so
        # the CC gains two extra rows: error = 2 / max(10, 1).
        assert report.per_cc[0] == pytest.approx(0.2)

    def test_invalid_row_respects_asymmetric_dc_as_second_role(self):
        """Regression: the invalid row plays t2 of an asymmetric DC.

        Conflict enumeration used to pair invalid rows only in role t1,
        so an Owner invalid row slipped past ``not(t1.Spouse & t2.Owner)``
        and shared the Spouse's key.
        """
        r1 = Relation.from_columns(
            {
                "pid": list(range(10)),
                "Age": [0] * 8 + [1, 0],
                "Rel": ["Owner"] * 9 + ["Spouse"],
            },
            key="pid",
        )
        r2 = Relation.from_columns({"hid": [0], "Area": ["A"]}, key="hid")
        # Row 8 (Age 1) cannot take the only combo without breaking the
        # zero-target CC → it becomes an invalid tuple.
        ccs = [parse_cc("|Age in [1, 1] & Area == 'A'| = 0")]
        dcs = [parse_dc("not(t1.Rel == 'Spouse' & t2.Rel == 'Owner')")]
        phase1 = run_phase1(r1, r2, ccs)
        assert 8 in phase1.assignment.invalid
        phase2 = run_phase2(
            r1, r2, dcs, phase1.assignment, phase1.catalog, "hid", ccs=ccs
        )
        assert dc_error(phase2.r1_hat, "hid", dcs) == 0.0
        fk = phase2.r1_hat.column("hid")
        assert fk[8] != fk[9]  # Owner invalid row must avoid the Spouse key

    def test_min_error_combo_prefers_under_target(self):
        """A fresh-key invalid row chases the under-target CC."""
        r1 = Relation.from_columns(
            {"pid": [0, 1], "Age": [5, 5], "Rel": ["Child", "Child"]},
            key="pid",
        )
        r2 = Relation.from_columns(
            {"hid": [1, 2], "Area": ["Chicago", "NYC"]}, key="hid"
        )
        # Both CCs cover all combos → leftovers cannot be placed safely.
        ccs = [
            parse_cc("|Age in [0, 10] & Area == 'Chicago'| = 1"),
            parse_cc("|Age in [0, 10] & Area == 'NYC'| = 1"),
        ]
        phase1 = run_phase1(r1, r2, ccs)
        phase2 = run_phase2(
            r1, r2, [], phase1.assignment, phase1.catalog, "hid", ccs=ccs
        )
        report = evaluate(phase2.r1_hat, phase2.r2_hat, "hid", ccs, [])
        assert report.mean_cc_error == 0.0

    def test_fresh_str_key_ranks_among_r2_keys(self):
        """A key minted for one invalid row is a candidate of the next,
        ranked by key value: ``synthetic_2`` sorts between R2's ``a1``
        and ``t2``, so the second row takes it before ``t2``."""
        r1 = Relation.from_columns(
            {
                "pid": [0, 1, 2, 3],
                "L": ["x", "y", "x", "w"],
                "A": [0, 1, 1, 1],
            },
            key="pid",
        )
        r2 = Relation.from_columns(
            {"hid": ["a1", "t2"], "B": ["p", "p"]}, key="hid"
        )
        dcs = [
            parse_dc("not(t1.L == 'x' & t2.L == 'x')"),
            parse_dc("not(t1.L == 'x' & t2.L == 'y')"),
            parse_dc("not(t1.A == 0 & t2.L == 'w')"),
        ]
        catalog = ComboCatalog.from_relation(r2)
        assignment = ViewAssignment(n=4, r2_attrs=catalog.attrs)
        assignment.assign_rows([0, 1], {"B": "p"})
        assignment.mark_invalid_rows([2, 3])
        phase2 = run_phase2(r1, r2, dcs, assignment, catalog, "hid")
        assert phase2.r1_hat.column("hid").tolist() == [
            "a1", "t2", "synthetic_2", "synthetic_2",
        ]
        assert phase2.r2_hat.column("hid").tolist() == [
            "a1", "t2", "synthetic_2",
        ]
        assert dc_error(phase2.r1_hat, "hid", dcs) == 0.0
