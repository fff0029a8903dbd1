"""Columnar ``ViewAssignment`` vs the naive per-row reference.

The columnar class stores codes in an ``(n × q)`` int32 matrix; these
tests drive both implementations through identical operation sequences —
including hypothesis-generated ones — and require every query to agree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CompletionError
from repro.phase1.assignment import NaiveViewAssignment, ViewAssignment

ATTRS = ("Tenure", "Area")
TENURES = ["Owned", "Rented"]
AREAS = ["Chicago", "NYC", "LA"]


def _both(n=6, attrs=ATTRS):
    return ViewAssignment(n=n, r2_attrs=attrs), NaiveViewAssignment(
        n=n, r2_attrs=attrs
    )


def _assert_equivalent(columnar, naive):
    assert columnar.n == naive.n
    assert list(columnar.untouched_indices()) == list(
        naive.untouched_indices()
    )
    assert columnar.incomplete_indices() == naive.incomplete_indices()
    assert columnar.complete_indices() == naive.complete_indices()
    assert columnar.completion_fraction() == naive.completion_fraction()
    assert columnar.untouched_mask().tolist() == naive.untouched_mask().tolist()
    assert (
        columnar.incomplete_mask().tolist() == naive.incomplete_mask().tolist()
    )
    assert columnar.complete_mask().tolist() == naive.complete_mask().tolist()
    assert columnar.assigned_mask().tolist() == naive.assigned_mask().tolist()
    assert columnar.invalid == naive.invalid
    for row in range(columnar.n):
        assert columnar.is_touched(row) == naive.is_touched(row)
        assert columnar.is_complete(row) == naive.is_complete(row)
        assert columnar.num_assigned(row) == naive.num_assigned(row)
        assert (columnar.values(row) or {}) == (naive.values(row) or {})
        expected_cc = naive.intended_cc[row]
        assert columnar.intended_cc[row] == (
            -1 if expected_cc is None else expected_cc
        )
        if naive.is_complete(row):
            assert columnar.combo(row) == naive.combo(row)
    groups = columnar.group_by_combo()
    assert {combo: rows.tolist() for combo, rows in groups.items()} == (
        naive.group_by_combo()
    )


# ---------------------------------------------------------------------------
# Directed cases
# ---------------------------------------------------------------------------
class TestDirectedEquivalence:
    def test_mixed_states(self):
        columnar, naive = _both()
        for a in (columnar, naive):
            a.assign(0, {"Tenure": "Owned", "Area": "Chicago"}, cc_index=2)
            a.assign(1, {"Area": "NYC"})
            a.assign(3, {"Tenure": "Rented", "Area": "NYC"})
            a.assign(4, {"Tenure": "Owned", "Area": "Chicago"})
            a.mark_invalid(4)
            a.mark_invalid(5)
        _assert_equivalent(columnar, naive)

    def test_empty_values_marks_touched(self):
        """Algorithm 2 assigns ``{}`` when a CC pins no R2 attribute."""
        columnar, naive = _both()
        for a in (columnar, naive):
            a.assign(2, {}, cc_index=7)
        _assert_equivalent(columnar, naive)
        assert columnar.is_touched(2) and not columnar.is_complete(2)
        assert columnar.intended_cc[2] == 7

    def test_assign_rows_matches_per_row_loop(self):
        columnar, naive = _both(n=10)
        columnar.assign_rows([1, 3, 5], {"Tenure": "Owned"}, cc_index=1)
        columnar.assign_rows([3, 5, 7], {"Area": "LA"}, cc_index=2)
        naive.assign_rows([1, 3, 5], {"Tenure": "Owned"}, cc_index=1)
        naive.assign_rows([3, 5, 7], {"Area": "LA"}, cc_index=2)
        _assert_equivalent(columnar, naive)

    def test_assign_rows_conflict_raises(self):
        columnar, naive = _both()
        columnar.assign_rows([0, 1], {"Area": "NYC"})
        naive.assign_rows([0, 1], {"Area": "NYC"})
        with pytest.raises(CompletionError):
            columnar.assign_rows([1, 2], {"Area": "LA"})
        with pytest.raises(CompletionError):
            naive.assign_rows([1, 2], {"Area": "LA"})

    def test_assign_rows_unknown_attr_raises(self):
        columnar, _ = _both()
        with pytest.raises(CompletionError):
            columnar.assign_rows([0], {"Rel": "Owner"})

    def test_assign_rows_accepts_numpy_indices(self):
        columnar, naive = _both()
        rows = np.asarray([0, 2], dtype=np.int64)
        columnar.assign_rows(rows, {"Tenure": "Rented", "Area": "LA"})
        naive.assign_rows(rows, {"Tenure": "Rented", "Area": "LA"})
        _assert_equivalent(columnar, naive)

    def test_group_by_combo_row_order_is_ascending(self):
        columnar, _ = _both(n=5)
        columnar.assign_rows(
            [4, 0, 2], {"Tenure": "Owned", "Area": "Chicago"}
        )
        columnar.assign_rows([3, 1], {"Tenure": "Rented", "Area": "NYC"})
        groups = columnar.group_by_combo()
        assert groups[("Owned", "Chicago")].tolist() == [0, 2, 4]
        assert groups[("Rented", "NYC")].tolist() == [1, 3]

    def test_value_arrays_decodes_complete_rows(self):
        columnar, _ = _both(n=4)
        columnar.assign_rows([0, 2], {"Tenure": "Owned", "Area": "NYC"})
        arrays = columnar.value_arrays([0, 2])
        assert arrays["Tenure"].tolist() == ["Owned", "Owned"]
        assert arrays["Area"].tolist() == ["NYC", "NYC"]
        with pytest.raises(CompletionError):
            columnar.value_arrays([0, 1])  # row 1 untouched


# ---------------------------------------------------------------------------
# Property-based equivalence
# ---------------------------------------------------------------------------
_operation = st.one_of(
    st.tuples(
        st.just("assign"),
        st.integers(min_value=0, max_value=7),
        st.fixed_dictionaries(
            {},
            optional={
                "Tenure": st.sampled_from(TENURES),
                "Area": st.sampled_from(AREAS),
            },
        ),
        st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
    ),
    st.tuples(
        st.just("invalid"),
        st.integers(min_value=0, max_value=7),
    ),
)


class TestHypothesisEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(_operation, max_size=30))
    def test_random_operation_sequences(self, ops):
        columnar, naive = _both(n=8)
        for op in ops:
            if op[0] == "invalid":
                columnar.mark_invalid(op[1])
                naive.mark_invalid(op[1])
                continue
            _, row, values, cc_index = op
            naive_error = columnar_error = None
            try:
                naive.assign(row, dict(values), cc_index=cc_index)
            except CompletionError as exc:
                naive_error = exc
            try:
                columnar.assign(row, dict(values), cc_index=cc_index)
            except CompletionError as exc:
                columnar_error = exc
            assert (naive_error is None) == (columnar_error is None)
        _assert_equivalent(columnar, naive)

    @settings(max_examples=100, deadline=None)
    @given(
        blocks=st.lists(
            st.tuples(
                st.lists(
                    st.integers(min_value=0, max_value=9),
                    min_size=1,
                    max_size=6,
                    unique=True,
                ),
                st.fixed_dictionaries(
                    {},
                    optional={
                        "Tenure": st.sampled_from(TENURES),
                        "Area": st.sampled_from(AREAS),
                    },
                ),
            ),
            max_size=10,
        )
    )
    def test_bulk_assign_matches_naive(self, blocks):
        columnar, naive = _both(n=10)
        for rows, values in blocks:
            naive_error = columnar_error = None
            try:
                naive.assign_rows(rows, dict(values))
            except CompletionError as exc:
                naive_error = exc
            try:
                columnar.assign_rows(rows, dict(values))
            except CompletionError as exc:
                columnar_error = exc
            assert (naive_error is None) == (columnar_error is None)
            if naive_error is not None:
                # A failed bulk assign may leave the two implementations
                # mid-mutation in different states; stop the sequence.
                return
        _assert_equivalent(columnar, naive)
