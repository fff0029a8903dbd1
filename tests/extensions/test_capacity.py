"""Capacity-constrained FK assignment."""

import pytest

from repro.constraints import parse_cc, parse_dc
from repro.core.metrics import dc_error
from repro.core.synthesizer import CExtensionSolver
from repro.errors import ReproError
from repro.extensions.capacity import fk_usage_histogram
from repro.phase2.coloring import KeyCap, coloring_lf
from repro.relational.relation import Relation


def _capped(graph, candidates, max_per_key, usage=None):
    """One largest-first pass under a hard per-key cap."""
    return coloring_lf(
        graph, {}, candidates, cap=KeyCap(max_per_key), usage=usage
    )


class TestCapacityColoring:
    def test_cap_forces_spread(self, graph_from_edges):
        graph = graph_from_edges([], vertices=range(4))
        coloring, skipped = _capped(graph, ["a", "b"], 2)
        assert not skipped
        usage = {}
        for c in coloring.values():
            usage[c] = usage.get(c, 0) + 1
        assert all(v <= 2 for v in usage.values())

    def test_cap_one_is_a_matching(self, graph_from_edges):
        graph = graph_from_edges([], vertices=range(3))
        coloring, skipped = _capped(graph, ["a", "b", "c"], 1)
        assert not skipped
        assert len(set(coloring.values())) == 3

    def test_skips_when_capacity_exhausted(self, graph_from_edges):
        graph = graph_from_edges([], vertices=range(3))
        coloring, skipped = _capped(graph, ["a"], 2)
        assert len(skipped) == 1

    def test_dc_forbidding_still_applies(self, graph_from_edges):
        graph = graph_from_edges([(0, 1)])
        coloring, skipped = _capped(graph, ["a", "b"], 5)
        assert coloring[0] != coloring[1]

    def test_invalid_cap_rejected(self):
        for bad in (0, -1, True, 2.0, "2", None):
            with pytest.raises(ReproError, match="max_per_key"):
                KeyCap(bad)

    def test_shared_usage_across_calls(self, graph_from_edges):
        usage = {}
        g1 = graph_from_edges([], vertices=[0, 1])
        _capped(g1, ["a"], 2, usage)
        g2 = graph_from_edges([], vertices=[2])
        coloring, skipped = _capped(g2, ["a"], 2, usage)
        assert skipped == [2]  # "a" already full from the first call


def _solve_capped(r1, r2, max_per_key, ccs=(), dcs=()):
    return CExtensionSolver().solve(
        r1, r2, fk_column="hid", ccs=ccs, dcs=dcs, strategy="capacity",
        strategy_options={"max_per_key": max_per_key},
    )


class TestSolveWithCapacity:
    """The ``"capacity"`` strategy through :class:`CExtensionSolver`."""

    @pytest.fixture
    def instance(self):
        r1 = Relation.from_columns(
            {
                "pid": list(range(10)),
                "Age": [30 + i for i in range(10)],
                "Rel": ["Child"] * 10,
            },
            key="pid",
        )
        r2 = Relation.from_columns(
            {"hid": [1, 2], "Area": ["X", "Y"]}, key="hid"
        )
        return r1, r2

    def test_capacity_respected(self, instance):
        r1, r2 = instance
        result = _solve_capped(r1, r2, 3)
        usage = fk_usage_histogram(result.r1_hat, "hid")
        assert all(v <= 3 for v in usage.values())
        assert sum(usage.values()) == len(r1)

    def test_fresh_tuples_absorb_overflow(self, instance):
        r1, r2 = instance
        result = _solve_capped(r1, r2, 2)
        # 10 rows, cap 2 → at least 5 keys; R2 had 2.
        assert len(result.r2_hat) >= 5
        assert result.phase2.stats.num_new_r2_tuples >= 3

    def test_dcs_and_capacity_together(self, instance):
        r1, r2 = instance
        dcs = [parse_dc("not(t1.Age < 33 & t2.Age < 33)")]
        result = _solve_capped(r1, r2, 4, dcs=dcs)
        assert dc_error(result.r1_hat, "hid", dcs) == 0.0
        usage = fk_usage_histogram(result.r1_hat, "hid")
        assert all(v <= 4 for v in usage.values())

    def test_ccs_still_pursued(self, instance):
        r1, r2 = instance
        ccs = [parse_cc("|Age in [30, 34] & Area == 'X'| = 5")]
        result = _solve_capped(r1, r2, 3, ccs=ccs)
        assert result.report.errors.per_cc == [0.0]

    def test_histogram_helper(self, instance):
        r1, r2 = instance
        result = _solve_capped(r1, r2, 3)
        histogram = fk_usage_histogram(result.r1_hat, "hid")
        assert sum(histogram.values()) == len(r1)


class TestValidation:
    """``max_per_key`` is checked once, before any row is colored."""

    @pytest.mark.parametrize("bad", [0, True])
    def test_bad_cap_rejected_up_front(self, bad):
        """At one time ``True`` passed as a cap of 1, and 0 only failed
        once a row was colored — never, for an empty child relation."""
        r1 = Relation.from_columns({"pid": [], "Age": []}, key="pid")
        r2 = Relation.from_columns({"hid": [1], "Area": ["X"]}, key="hid")
        with pytest.raises(ReproError, match="max_per_key"):
            CExtensionSolver().solve(
                r1, r2, fk_column="hid", strategy="capacity",
                strategy_options={"max_per_key": bad},
            )
