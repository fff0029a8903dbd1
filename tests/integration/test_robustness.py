"""Robustness: degenerate inputs, string keys, inconsistent constraints."""

import pytest

from repro import CExtensionSolver, Relation, SolverConfig, parse_cc, parse_dc
from repro.core.metrics import dc_error
from repro.relational.relation import Relation


class TestDegenerateInputs:
    def test_single_row_r1(self):
        r1 = Relation.from_columns({"pid": [1], "Age": [30]}, key="pid")
        r2 = Relation.from_columns({"hid": [1], "Area": ["X"]}, key="hid")
        result = CExtensionSolver().solve(r1, r2, fk_column="hid")
        assert list(result.r1_hat.column("hid")) == [1]

    def test_empty_r1(self):
        r1 = Relation.from_columns({"pid": [], "Age": []}, key="pid")
        r2 = Relation.from_columns({"hid": [1], "Area": ["X"]}, key="hid")
        result = CExtensionSolver().solve(r1, r2, fk_column="hid")
        assert len(result.r1_hat) == 0
        assert len(result.r2_hat) == 1

    def test_single_key_r2_with_conflicting_rows(self):
        """Conflicting rows with one key force fresh tuples, never errors."""
        r1 = Relation.from_columns(
            {"pid": [1, 2, 3, 4], "Rel": ["Owner"] * 4}, key="pid"
        )
        r2 = Relation.from_columns({"hid": [1], "Area": ["X"]}, key="hid")
        dcs = [parse_dc("not(t1.Rel == 'Owner' & t2.Rel == 'Owner')")]
        result = CExtensionSolver().solve(r1, r2, fk_column="hid", dcs=dcs)
        assert dc_error(result.r1_hat, "hid", dcs) == 0.0
        assert len(result.r2_hat) == 4

    def test_r2_with_duplicate_combos(self):
        """Multiple keys sharing one combo are one partition, many colors."""
        r1 = Relation.from_columns(
            {"pid": [1, 2, 3], "Rel": ["Owner"] * 3}, key="pid"
        )
        r2 = Relation.from_columns(
            {"hid": [1, 2, 3], "Area": ["X", "X", "X"]}, key="hid"
        )
        dcs = [parse_dc("not(t1.Rel == 'Owner' & t2.Rel == 'Owner')")]
        result = CExtensionSolver().solve(r1, r2, fk_column="hid", dcs=dcs)
        assert len(set(result.r1_hat.column("hid"))) == 3
        assert result.phase2.stats.num_new_r2_tuples == 0

    def test_r1_with_a_single_attribute(self):
        r1 = Relation.from_columns({"Age": [1, 2, 3]})
        r2 = Relation.from_columns({"hid": [1], "Area": ["X"]}, key="hid")
        result = CExtensionSolver().solve(r1, r2, fk_column="hid")
        assert len(result.r1_hat) == 3


class TestStringKeys:
    def test_string_fk_end_to_end(self):
        """Keys need not be integers; fresh keys become synthetic names."""
        r1 = Relation.from_columns(
            {"pid": [1, 2, 3], "Rel": ["Owner", "Owner", "Owner"]},
            key="pid",
        )
        r2 = Relation.from_columns(
            {"hid": ["h-alpha", "h-beta"], "Area": ["X", "X"]}, key="hid"
        )
        dcs = [parse_dc("not(t1.Rel == 'Owner' & t2.Rel == 'Owner')")]
        result = CExtensionSolver().solve(r1, r2, fk_column="hid", dcs=dcs)
        assert dc_error(result.r1_hat, "hid", dcs) == 0.0
        keys = set(result.r1_hat.column("hid"))
        assert len(keys) == 3
        fresh = keys - {"h-alpha", "h-beta"}
        assert all(str(k).startswith("synthetic_") for k in fresh)

    def test_string_keys_with_ccs(self):
        r1 = Relation.from_columns(
            {"pid": [1, 2, 3, 4], "Age": [10, 20, 30, 40]}, key="pid"
        )
        r2 = Relation.from_columns(
            {"hid": ["a", "b"], "Area": ["X", "Y"]}, key="hid"
        )
        ccs = [parse_cc("|Age <= 20 & Area == 'X'| = 2")]
        result = CExtensionSolver().solve(r1, r2, fk_column="hid", ccs=ccs)
        assert result.report.errors.per_cc == [0.0]


class TestInconsistentConstraints:
    def test_contradictory_cc_pair_absorbed(self):
        """Equal predicates, different targets: soft mode splits the error."""
        r1 = Relation.from_columns(
            {"pid": list(range(10)), "Age": [25] * 10}, key="pid"
        )
        r2 = Relation.from_columns(
            {"hid": [1, 2], "Area": ["X", "Y"]}, key="hid"
        )
        ccs = [
            parse_cc("|Age == 25 & Area == 'X'| = 3"),
            parse_cc("|Age == 25 & Area == 'X'| = 7"),
        ]
        result = CExtensionSolver().solve(r1, r2, fk_column="hid", ccs=ccs)
        achieved = ccs[0].count_in(result.join_view())
        assert 3 <= achieved <= 7  # lands between the two demands
        assert result.report.errors.dc_error == 0.0

    def test_over_demanding_cc_takes_all_available(self):
        r1 = Relation.from_columns(
            {"pid": [1, 2], "Age": [25, 25]}, key="pid"
        )
        r2 = Relation.from_columns({"hid": [1], "Area": ["X"]}, key="hid")
        ccs = [parse_cc("|Age == 25 & Area == 'X'| = 50")]
        result = CExtensionSolver().solve(r1, r2, fk_column="hid", ccs=ccs)
        assert ccs[0].count_in(result.join_view()) == 2

    def test_zero_target_cc_keeps_rows_away(self):
        r1 = Relation.from_columns(
            {"pid": [1, 2], "Age": [25, 25]}, key="pid"
        )
        r2 = Relation.from_columns(
            {"hid": [1, 2], "Area": ["X", "Y"]}, key="hid"
        )
        ccs = [parse_cc("|Age == 25 & Area == 'X'| = 0")]
        result = CExtensionSolver().solve(r1, r2, fk_column="hid", ccs=ccs)
        assert ccs[0].count_in(result.join_view()) == 0


class TestCrossCheckWithNetworkx:
    def test_partition_coloring_is_proper_per_networkx(
        self, census_small, census_all_dcs
    ):
        """Validate our coloring against networkx's independent checker."""
        import networkx as nx

        from repro.phase1.hybrid import run_phase1
        from repro.phase2.edges import build_conflict_graph
        from repro.phase2.fk_assignment import run_phase2

        r1 = census_small.persons_masked
        phase1 = run_phase1(r1, census_small.housing, [])
        phase2 = run_phase2(
            r1, census_small.housing, census_all_dcs,
            phase1.assignment, phase1.catalog, "hid",
        )
        # Rebuild the binary conflict edges as a networkx graph and check
        # no edge is monochromatic under our coloring.
        graph = build_conflict_graph(
            r1, census_all_dcs, range(len(r1))
        )
        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(graph.vertices)
        for edge in graph.edges:
            if len(edge) == 2:
                nx_graph.add_edge(*edge)
        # Group rows by assigned key: each key's household must be an
        # independent set of the global conflict graph.
        by_key = {}
        for v, key in enumerate(phase2.r1_hat.column("hid").tolist()):
            by_key.setdefault(key, []).append(v)
        for members in by_key.values():
            sub = nx_graph.subgraph(members)
            assert sub.number_of_edges() == 0
