"""Leftover completion and bin grouping against the per-row reference.

:mod:`leftover_reference` keeps the per-row loops that
:func:`repro.phase1.hybrid.complete_leftovers` and
:meth:`Binning.bin_members` replaced.  Random relations, CC sets
(conjunctive, disjunctive, R1-only and R2-only, over cut and uncut INT
attributes and STR attributes, some attributes referenced by no CC),
R2s with repeated combos and partial pre-assignments must leave the
same :class:`ViewAssignment` state — every code row, every row's
values, the invalid rows and the intended CCs — and the same bins.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st
from leftover_reference import (
    reference_bin_members,
    reference_complete_leftovers,
)

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.intervalize import build_binning
from repro.phase1 import hybrid
from repro.phase1.assignment import ViewAssignment
from repro.phase1.combos import ComboCatalog
from repro.phase1.hybrid import complete_leftovers
from repro.relational.predicate import Interval, Predicate, ValueSet
from repro.relational.relation import Relation

R1_ATTRS = ("Age", "Kids", "Rel", "Zone")
RELS = ("a", "b", "c")
ZONES = ("n", "s")
AREAS = ("X", "Y", "Z")
TENURES = ("own", "rent")
#: A value no combo carries: rows pinned to it have no consistent combo.
STRAY = "W"


@st.composite
def _r1_condition(draw):
    attr = draw(st.sampled_from(("Age", "Age", "Kids", "Rel")))
    if attr == "Age":  # cuts Age into elementary intervals
        lo = draw(st.integers(0, 9))
        hi = draw(st.integers(lo, 9))
        return attr, Interval(lo, hi)
    if attr == "Kids":  # covers every value, so Kids stays uncut
        return attr, Interval(-math.inf, 100)
    return attr, ValueSet(draw(st.sets(st.sampled_from(RELS), min_size=1)))


@st.composite
def _r2_condition(draw):
    attr = draw(st.sampled_from(("Area", "Tenure", "Rooms")))
    if attr == "Rooms":
        lo = draw(st.integers(1, 3))
        return attr, Interval(lo, draw(st.integers(lo, 3)))
    pool = AREAS if attr == "Area" else TENURES
    return attr, ValueSet(draw(st.sets(st.sampled_from(pool), min_size=1)))


@st.composite
def _disjunct(draw):
    # Either side may be empty: R1-only (trivial R2 part) and R2-only
    # disjuncts are both drawn.
    conds = dict(draw(st.lists(_r1_condition(), max_size=2)))
    conds.update(draw(st.lists(_r2_condition(), max_size=2)))
    return Predicate(conds)


@st.composite
def _cc(draw):
    disjuncts = draw(st.lists(_disjunct(), min_size=1, max_size=3))
    return CardinalityConstraint(disjuncts, draw(st.integers(0, 5)))


@st.composite
def _case(draw):
    n = draw(st.integers(1, 40))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    r1 = Relation.from_columns(
        {
            "pid": list(range(n)),
            "Age": column(st.integers(0, 9)),
            "Kids": column(st.integers(0, 3)),
            "Rel": column(st.sampled_from(RELS)),
            "Zone": column(st.sampled_from(ZONES)),
        },
        key="pid",
    )
    # Few distinct combos over more rows: keys repeat, so caps are 1-3.
    combos = draw(
        st.lists(
            st.tuples(
                st.sampled_from(AREAS),
                st.sampled_from(TENURES),
                st.integers(1, 3),
            ),
            min_size=1,
            max_size=10,
        )
    )
    r2 = Relation.from_columns(
        {
            "hid": list(range(len(combos))),
            "Area": [c[0] for c in combos],
            "Tenure": [c[1] for c in combos],
            "Rooms": [c[2] for c in combos],
        },
        key="hid",
    )
    ccs = draw(st.lists(_cc(), max_size=6))
    # Pre-assignments on disjoint row slices: partial (a subset of the R2
    # attributes, sometimes a stray value), complete or empty, each with
    # or without a CC index.
    value_of = {
        "Area": st.sampled_from(AREAS + (STRAY,)),
        "Tenure": st.sampled_from(TENURES),
        "Rooms": st.integers(1, 3),
    }
    order = draw(st.permutations(range(n)))
    ops = []
    start = 0
    for _ in range(draw(st.integers(0, 4))):
        size = draw(st.integers(0, n - start))
        attrs = draw(st.sets(st.sampled_from(tuple(value_of))))
        values = {a: draw(value_of[a]) for a in sorted(attrs)}
        cc_index = draw(st.none() | st.integers(0, 5))
        ops.append((sorted(order[start:start + size]), values, cc_index))
        start += size
    return r1, r2, ccs, ops


def _complete_both(r1, r2, ccs, ops, attrs=R1_ATTRS):
    """Apply ``ops`` then complete, once per implementation."""
    catalog = ComboCatalog.from_relation(r2)
    binning = build_binning(r1, attrs, ccs)
    done = []
    for complete in (complete_leftovers, reference_complete_leftovers):
        assignment = ViewAssignment(n=len(r1), r2_attrs=catalog.attrs)
        for rows, values, cc_index in ops:
            assignment.assign_rows(rows, values, cc_index=cc_index)
        complete(r1, attrs, catalog, ccs, binning, assignment)
        done.append(assignment)
    return done


def _assert_same_state(got, want):
    np.testing.assert_array_equal(got.code_rows(), want.code_rows())
    for row in range(got.n):
        assert got.values(row) == want.values(row), row
    assert got.invalid == want.invalid
    np.testing.assert_array_equal(got.intended_cc, want.intended_cc)


def _assert_same_bins(binning, relation, indices):
    got = binning.bin_members(relation, indices)
    want = reference_bin_members(binning, relation, indices)
    assert got == want
    assert list(got) == list(want)  # first-appearance order
    assert [tuple(map(type, k)) for k in got] == [
        tuple(map(type, k)) for k in want
    ]
    assert sorted(got, key=repr) == sorted(want, key=repr)


class TestLeftoverEquivalence:
    @settings(max_examples=250, deadline=None)
    @given(_case())
    def test_matches_reference(self, case):
        r1, r2, ccs, ops = case
        got, want = _complete_both(r1, r2, ccs, ops)
        _assert_same_state(got, want)

    @settings(max_examples=100, deadline=None)
    @given(_case())
    def test_blocked_scoring_matches_reference(self, case):
        # One decision class per scoring block.
        with mock.patch.object(hybrid, "_DAMAGE_BLOCK_CELLS", 1):
            got, want = _complete_both(*case)
        _assert_same_state(got, want)

    def test_heap_tie_between_unequal_loads(self):
        # Caps 2 and 4: after one row on A and three on B the keys tie,
        # (1 + 1) / 2 == (3 + 1) / 4, and A (the lower combo) must win.
        r1 = Relation.from_columns(
            {"pid": list(range(12)), "Age": [5] * 12}, key="pid"
        )
        r2 = Relation.from_columns(
            {"hid": list(range(6)), "Area": ["A"] * 2 + ["B"] * 4},
            key="hid",
        )
        got, want = _complete_both(r1, r2, [], [], attrs=("Age",))
        _assert_same_state(got, want)
        picks = [got.values(row)["Area"] for row in range(6)]
        assert picks == ["B", "A", "B", "B", "A", "B"]

    def test_overlapping_candidate_lists(self):
        # Untouched rows draw from every combo, pinned rows from one
        # Area's block (as on the retail workload); the full list's picks
        # leave stale tops in the block lists' heaps.
        n = 60
        r1 = Relation.from_columns(
            {"pid": list(range(n)), "Age": list(range(n))}, key="pid"
        )
        areas = ["X", "X", "X", "Y", "Y", "Z", "Z", "Z", "Z"]
        r2 = Relation.from_columns(
            {
                "hid": list(range(len(areas))),
                "Area": areas,
                "Tenure": ["own", "rent", "own"] * 3,
            },
            key="hid",
        )
        ops = [
            (list(range(0, n, 3)), {"Area": "X"}, None),
            (list(range(1, n, 6)), {"Area": "Z"}, 0),
        ]
        got, want = _complete_both(r1, r2, [], ops, attrs=("Age",))
        _assert_same_state(got, want)
        assert got.completion_fraction() == 1.0


class TestBinMembersEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(_case(), st.data())
    def test_matches_reference(self, case, data):
        r1, _, ccs, _ = case
        binning = build_binning(r1, R1_ATTRS, ccs)
        _assert_same_bins(binning, r1, None)
        subset = data.draw(
            st.lists(st.integers(0, len(r1) - 1), unique=True), label="rows"
        )
        _assert_same_bins(binning, r1, np.asarray(subset, dtype=np.int64))
        _assert_same_bins(
            binning, r1, np.asarray(sorted(subset), dtype=np.int64)
        )
