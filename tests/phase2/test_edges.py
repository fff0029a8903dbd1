"""Vectorised edge enumeration vs brute force."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints.dc import BinaryAtom, DenialConstraint, UnaryAtom
from repro.phase2.edges import build_conflict_graph, conflicting_pairs
from repro.relational.relation import Relation


def _relation(ages, rels):
    return Relation.from_columns(
        {"pid": list(range(len(ages))), "Age": ages, "Rel": rels}, key="pid"
    )


@pytest.fixture
def dc_owner_pair():
    return DenialConstraint(
        [UnaryAtom(0, "Rel", "==", "Owner"), UnaryAtom(1, "Rel", "==", "Owner")]
    )


@pytest.fixture
def dc_spouse_gap():
    return DenialConstraint(
        [
            UnaryAtom(0, "Rel", "==", "Owner"),
            UnaryAtom(1, "Rel", "==", "Spouse"),
            BinaryAtom(1, "Age", "<", 0, "Age", -50),
        ]
    )


class TestConflictingPairs:
    def test_symmetric_dc(self, dc_owner_pair):
        relation = _relation([30, 40, 50], ["Owner", "Owner", "Child"])
        rows = np.arange(3)
        assert conflicting_pairs(relation, dc_owner_pair, rows) == [(0, 1)]

    def test_asymmetric_dc_both_orientations(self, dc_spouse_gap):
        relation = _relation([75, 20, 30], ["Owner", "Spouse", "Spouse"])
        rows = np.arange(3)
        pairs = conflicting_pairs(relation, dc_spouse_gap, rows)
        assert pairs == [(0, 1)]  # 20 < 75-50; 30 is fine

    def test_self_pair_excluded(self, dc_owner_pair):
        relation = _relation([30], ["Owner"])
        assert conflicting_pairs(relation, dc_owner_pair, np.arange(1)) == []

    def test_cross_sets(self, dc_owner_pair):
        relation = _relation([1, 2, 3], ["Owner", "Owner", "Owner"])
        pairs = conflicting_pairs(
            relation, dc_owner_pair, np.asarray([0]), np.asarray([1, 2])
        )
        assert pairs == [(0, 1), (0, 2)]

    def test_arity_guard(self, dc_owner_pair):
        ternary = DenialConstraint(
            [BinaryAtom(0, "Age", "==", 1, "Age"),
             BinaryAtom(1, "Age", "==", 2, "Age")],
            arity=3,
        )
        relation = _relation([1], ["Owner"])
        with pytest.raises(ValueError):
            conflicting_pairs(relation, ternary, np.arange(1))


class TestBuildConflictGraph:
    def test_owner_clique(self, dc_owner_pair):
        relation = _relation([1, 2, 3], ["Owner"] * 3)
        graph = build_conflict_graph(relation, [dc_owner_pair], range(3))
        assert graph.num_edges == 3  # triangle

    def test_ternary_dc_hyperedges(self):
        dc = DenialConstraint(
            [BinaryAtom(0, "Age", "==", 1, "Age"),
             BinaryAtom(1, "Age", "==", 2, "Age")],
            arity=3,
        )
        relation = _relation([7, 7, 7, 8], ["x"] * 4)
        graph = build_conflict_graph(relation, [dc], range(4))
        assert graph.num_edges == 1
        assert graph.edges == [(0, 1, 2)]

    def test_multiple_dcs_union(self, dc_owner_pair, dc_spouse_gap):
        relation = _relation([75, 75, 20], ["Owner", "Owner", "Spouse"])
        graph = build_conflict_graph(
            relation, [dc_owner_pair, dc_spouse_gap], range(3)
        )
        edges = set(graph.edges)
        assert edges == {(0, 1), (0, 2), (1, 2)}


class TestAgainstBruteForce:
    @settings(max_examples=30, deadline=None)
    @given(
        ages=st.lists(st.integers(0, 99), min_size=2, max_size=12),
        data=st.data(),
    )
    def test_vectorised_matches_row_level(self, ages, data):
        rels = data.draw(
            st.lists(
                st.sampled_from(["Owner", "Spouse", "Child"]),
                min_size=len(ages),
                max_size=len(ages),
            )
        )
        relation = _relation(ages, rels)
        dc = DenialConstraint(
            [
                UnaryAtom(0, "Rel", "==", "Owner"),
                UnaryAtom(1, "Rel", "in", ("Spouse", "Child")),
                BinaryAtom(1, "Age", "<", 0, "Age", -10),
            ]
        )
        fast = set(conflicting_pairs(relation, dc, np.arange(len(ages))))
        slow = set()
        rows = [relation.row(i) for i in range(len(ages))]
        for i, j in itertools.combinations(range(len(ages)), 2):
            if dc.violates([rows[i], rows[j]]):
                slow.add((i, j))
        assert fast == slow
