"""Capacity-constrained FK assignment."""

import pytest

from repro.constraints import parse_cc, parse_dc
from repro.core.metrics import dc_error
from repro.errors import ReproError
from repro.extensions.capacity import (
    capacity_coloring,
    fk_usage_histogram,
    solve_with_capacity,
)
from repro.relational.relation import Relation


class TestCapacityColoring:
    def test_cap_forces_spread(self, graph_from_edges):
        graph = graph_from_edges([], vertices=range(4))
        coloring, skipped = capacity_coloring(graph, ["a", "b"], 2)
        assert not skipped
        usage = {}
        for c in coloring.values():
            usage[c] = usage.get(c, 0) + 1
        assert all(v <= 2 for v in usage.values())

    def test_cap_one_is_a_matching(self, graph_from_edges):
        graph = graph_from_edges([], vertices=range(3))
        coloring, skipped = capacity_coloring(graph, ["a", "b", "c"], 1)
        assert not skipped
        assert len(set(coloring.values())) == 3

    def test_skips_when_capacity_exhausted(self, graph_from_edges):
        graph = graph_from_edges([], vertices=range(3))
        coloring, skipped = capacity_coloring(graph, ["a"], 2)
        assert len(skipped) == 1

    def test_dc_forbidding_still_applies(self, graph_from_edges):
        graph = graph_from_edges([(0, 1)])
        coloring, skipped = capacity_coloring(graph, ["a", "b"], 5)
        assert coloring[0] != coloring[1]

    def test_invalid_cap_rejected(self, graph_from_edges):
        with pytest.raises(ReproError):
            capacity_coloring(graph_from_edges([]), ["a"], 0)

    def test_shared_usage_across_calls(self, graph_from_edges):
        usage = {}
        g1 = graph_from_edges([], vertices=[0, 1])
        capacity_coloring(g1, ["a"], 2, {}, usage)
        g2 = graph_from_edges([], vertices=[2])
        coloring, skipped = capacity_coloring(g2, ["a"], 2, {}, usage)
        assert skipped == [2]  # "a" already full from the first call


class TestSolveWithCapacity:
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
        result = solve_with_capacity(
            r1, r2, fk_column="hid", max_per_key=3
        )
        usage = result.usage()
        assert all(v <= 3 for v in usage.values())
        assert sum(usage.values()) == len(r1)

    def test_fresh_tuples_absorb_overflow(self, instance):
        r1, r2 = instance
        result = solve_with_capacity(
            r1, r2, fk_column="hid", max_per_key=2
        )
        # 10 rows, cap 2 → at least 5 keys; R2 had 2.
        assert len(result.r2_hat) >= 5
        assert result.num_new_r2_tuples >= 3

    def test_dcs_and_capacity_together(self, instance):
        r1, r2 = instance
        dcs = [parse_dc("not(t1.Age < 33 & t2.Age < 33)")]
        result = solve_with_capacity(
            r1, r2, fk_column="hid", max_per_key=4, dcs=dcs
        )
        assert dc_error(result.r1_hat, "hid", dcs) == 0.0
        assert all(v <= 4 for v in result.usage().values())

    def test_ccs_still_pursued(self, instance):
        r1, r2 = instance
        ccs = [parse_cc("|Age in [30, 34] & Area == 'X'| = 5")]
        result = solve_with_capacity(
            r1, r2, fk_column="hid", max_per_key=3, ccs=ccs
        )
        assert result.errors.per_cc == [0.0]

    def test_histogram_helper(self, instance):
        r1, r2 = instance
        result = solve_with_capacity(r1, r2, fk_column="hid", max_per_key=3)
        histogram = fk_usage_histogram(result.r1_hat, "hid")
        assert sum(histogram.values()) == len(r1)
