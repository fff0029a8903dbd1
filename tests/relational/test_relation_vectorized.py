"""Equivalence of the vectorised Relation kernels and their naive references.

Property-style: randomized relations (mixed INT/STR columns, duplicate-heavy
and near-unique regimes, empty and single-row edge cases) must produce
identical results from the lexsort-and-split kernels and the per-row loops.
"""

import numpy as np
import pytest

from repro.core.metrics import dc_error, dc_error_naive
from repro.constraints.parser import parse_dc
from repro.errors import KeyLookupError, SchemaError
from repro.phase2 import edges
from repro.relational.join import fk_join, fk_join_naive
from repro.relational.ordering import sort_key, tuple_sort_key
from repro.relational.relation import Relation
from repro.relational.schema import ColumnSpec, Schema
from repro.relational.types import Dtype

AREAS = ["Chicago", "NYC", "Boston", "LA", "Detroit", "Austin"]


def random_relation(rng: np.random.Generator, n: int, cardinality: int) -> Relation:
    """A relation with one INT and two STR columns plus a unique key."""
    return Relation.from_columns(
        {
            "pid": list(range(n)),
            "Age": rng.integers(0, max(cardinality, 1), size=n).tolist(),
            "Area": [AREAS[i % len(AREAS)] for i in rng.integers(0, max(cardinality, 1), size=n)],
            "Rel": [f"rel{i}" for i in rng.integers(0, 3, size=n)],
        },
        key="pid",
    )


CASES = [(0, 4), (1, 1), (2, 1), (7, 2), (64, 3), (200, 50), (200, 1000)]


@pytest.mark.parametrize("n,cardinality", CASES)
@pytest.mark.parametrize("names", [["Age"], ["Area"], ["Age", "Area", "Rel"]])
def test_group_ops_match_naive(n, cardinality, names):
    rng = np.random.default_rng(n * 1000 + cardinality)
    relation = random_relation(rng, n, cardinality)

    assert relation.group_counts(names) == relation.group_counts_naive(names)

    fast = relation.group_indices(names)
    slow = relation.group_indices_naive(names)
    assert set(fast) == set(slow)
    for key, indices in slow.items():
        assert np.array_equal(fast[key], indices)

    assert relation.distinct(names) == relation.distinct_naive(names)


@pytest.mark.parametrize("n,cardinality", CASES)
def test_key_index_matches_naive(n, cardinality):
    rng = np.random.default_rng(n * 7 + cardinality)
    relation = random_relation(rng, n, cardinality)
    assert relation.key_index() == relation.key_index_naive()


@pytest.mark.parametrize("n", [0, 1, 5, 50])
def test_fk_join_matches_naive(n):
    rng = np.random.default_rng(n)
    r2 = Relation.from_columns(
        {"hid": list(range(10, 18)), "Area": [AREAS[i % 6] for i in range(8)]},
        key="hid",
    )
    r1 = Relation.from_columns(
        {
            "pid": list(range(n)),
            "Age": rng.integers(0, 90, size=n).tolist(),
            "hid": rng.integers(10, 18, size=n).tolist(),
        },
        key="pid",
    )
    fast = fk_join(r1, r2, "hid")
    slow = fk_join_naive(r1, r2, "hid")
    assert fast.schema.names == slow.schema.names
    assert fast.to_rows() == slow.to_rows()


def test_fk_join_string_keys():
    r2 = Relation.from_columns(
        {"hid": ["h2", "h10", "h1"], "Area": ["a", "b", "c"]}, key="hid"
    )
    r1 = Relation.from_columns(
        {"pid": [1, 2, 3, 4], "hid": ["h10", "h1", "h10", "h2"]}, key="pid"
    )
    assert fk_join(r1, r2, "hid").to_rows() == fk_join_naive(r1, r2, "hid").to_rows()


def test_fk_join_dangling_and_duplicate_keys_rejected():
    r2 = Relation.from_columns({"hid": [1, 2], "Area": ["a", "b"]}, key="hid")
    r1 = Relation.from_columns({"pid": [1], "hid": [9]}, key="pid")
    with pytest.raises(SchemaError):
        fk_join(r1, r2, "hid")
    dup = Relation.from_columns({"hid": [1, 1], "Area": ["a", "b"]}, key="hid")
    ok = Relation.from_columns({"pid": [1], "hid": [1]}, key="pid")
    with pytest.raises(SchemaError):
        fk_join(ok, dup, "hid")


def test_key_positions_vectorized_lookup():
    relation = Relation.from_columns({"k": [30, 10, 20], "v": [1, 2, 3]}, key="k")
    assert relation.key_positions([20, 30, 30]).tolist() == [2, 0, 0]
    with pytest.raises(SchemaError):
        relation.key_positions([99])
    empty = Relation.from_columns({"k": [], "v": []}, key="k")
    assert len(empty.key_positions([])) == 0
    with pytest.raises(SchemaError):
        empty.key_positions([1])


def test_key_positions_does_not_coerce_lookup_values():
    """'7' and 7.9 must not silently match integer key 7."""
    relation = Relation.from_columns({"k": [5, 7], "v": [0, 1]}, key="k")
    with pytest.raises(SchemaError):
        relation.key_positions(np.asarray(["7"], dtype=object))
    with pytest.raises(SchemaError):
        relation.key_positions([7.9])
    assert relation.key_positions([7.0]).tolist() == [1]


def test_key_positions_keeps_types_of_a_mixed_lookup_list():
    """numpy turns ``['x', 7]`` into all strings; the int must still not
    match the STR key ``'7'``, and the value named must be the miss."""
    str_keyed = Relation.from_columns({"k": ["7", "x"], "v": [0, 1]}, key="k")
    assert str_keyed.key_positions(["x", "7"]).tolist() == [1, 0]
    with pytest.raises(KeyLookupError, match="key value 7 not found"):
        str_keyed.key_positions(["x", 7])
    int_keyed = Relation.from_columns({"k": [1, 2], "v": [0, 1]}, key="k")
    with pytest.raises(KeyLookupError, match="key value '7' not found"):
        int_keyed.key_positions([1, "7"])


def test_mixed_type_str_column_is_rejected():
    """A STR column holds str only, and a lookup value of another type
    than the keys is reported as not found."""
    schema = Schema(
        [ColumnSpec("k", Dtype.STR), ColumnSpec("v", Dtype.INT)], key="k"
    )
    with pytest.raises(SchemaError, match="column 'k' .* type int"):
        Relation(
            schema,
            {
                "k": np.asarray([1, "x", 2, "x", 1], dtype=object),
                "v": np.asarray([0, 1, 2, 3, 4], dtype=np.int64),
            },
        )
    keyed = Relation(
        schema,
        {
            "k": np.asarray(["1", "x", "2"], dtype=object),
            "v": np.asarray([0, 1, 2], dtype=np.int64),
        },
    )
    lookups = np.asarray(["x", "1"], dtype=object)
    assert keyed.key_positions(lookups).tolist() == [1, 0]
    with pytest.raises(KeyLookupError, match="key value 1 not found"):
        keyed.key_positions(np.asarray(["x", 1], dtype=object))


def test_group_counts_empty_names():
    relation = Relation.from_columns({"a": [1, 2, 3]})
    assert relation.group_counts([]) == relation.group_counts_naive([]) == {(): 3}
    empty = Relation.from_columns({"a": []})
    assert empty.group_counts([]) == empty.group_counts_naive([]) == {}


@pytest.mark.parametrize("n", [0, 1, 2, 40])
def test_dc_error_matches_naive(n, monkeypatch):
    rng = np.random.default_rng(n + 99)
    r1_hat = Relation.from_columns(
        {
            "pid": list(range(n)),
            "Age": rng.integers(0, 5, size=n).tolist(),
            "Inc": rng.integers(0, 7, size=n).tolist(),
            "Rel": [["Owner", "Child"][i] for i in rng.integers(0, 2, size=n)],
            "hid": rng.integers(0, max(n // 3, 1), size=n).tolist(),
        },
        key="pid",
    )
    dcs = [
        parse_dc("not(t1.Rel == 'Owner' & t2.Rel == 'Owner')"),
        parse_dc("not(t1.Age < t2.Age - 3)"),
        # t2-vs-t1 and same-variable binary atoms, with offsets.
        parse_dc("not(t2.Age > t1.Age + 2 & t1.Inc >= t1.Age + 1)"),
        parse_dc("not(t2.Inc < t2.Age - 1 & t1.Rel == 'Owner')"),
        parse_dc(
            "not(t1.Rel in {'Owner', 'Child'} & t2.Rel in {'Child'} "
            "& t2.Age > t1.Age)"
        ),
        parse_dc(
            "not(t1.Rel == 'Child' & t2.Rel == 'Child' & t3.Rel == 'Child' "
            "& t3.Age < t1.Age)"
        ),
    ]
    # A chunked store whose 3-row chunks split the FK groups, and an
    # FK made of singleton groups only.
    chunked = r1_hat.to_store(chunk_rows=3) if n else r1_hat
    singletons = r1_hat.drop_column("hid").with_column(
        ColumnSpec("hid", Dtype.INT), list(range(n))
    )
    # Pair blocks of 1 and 3 make one FK group span several blocks.
    for block in (1, 3, edges.PAIR_BLOCK):
        monkeypatch.setattr(edges, "PAIR_BLOCK", block)
        for subset in [[dc] for dc in dcs] + [dcs]:
            expected = dc_error_naive(r1_hat, "hid", subset)
            assert dc_error(r1_hat, "hid", subset) == expected
            assert dc_error(chunked, "hid", subset) == expected
            assert dc_error(singletons, "hid", subset) == 0.0
    assert dc_error(r1_hat, "hid", []) == 0.0


class TestCanonicalOrdering:
    def test_integers_sort_numerically(self):
        relation = Relation.from_columns({"a": [10, 9, 2, 100]})
        assert relation.distinct(["a"]) == [(2,), (9,), (10,), (100,)]

    def test_numbers_before_strings(self):
        values = ["b", 10, "a", 2]
        assert sorted(values, key=sort_key) == [2, 10, "a", "b"]

    def test_numpy_scalars_order_like_python(self):
        values = [np.int64(10), 9, np.int64(2)]
        assert sorted(values, key=sort_key) == [np.int64(2), 9, np.int64(10)]

    def test_tuple_key_is_elementwise(self):
        combos = [(10, "b"), (9, "a"), (9, "b"), (2, "z")]
        assert sorted(combos, key=tuple_sort_key) == [
            (2, "z"), (9, "a"), (9, "b"), (10, "b"),
        ]
