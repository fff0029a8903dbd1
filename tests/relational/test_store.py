"""Unit tests for the column-store backends and chunked relation kernels."""

import json
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.constraints.cc import CardinalityConstraint, count_ccs
from repro.constraints.dc import BinaryAtom, DenialConstraint, UnaryAtom
from repro.core.metrics import dc_error, dc_error_naive
from repro.errors import SchemaError
from repro.relational import (
    ColumnSpec,
    CompositeStore,
    Dtype,
    MmapColumnStore,
    MmapStoreWriter,
    NumpyColumnStore,
    Relation,
    Schema,
)
from repro.relational.join import fk_join
from repro.relational.predicate import Interval, Predicate, ValueSet


def _schema(**dtypes):
    return Schema([ColumnSpec(name, dtype) for name, dtype in dtypes.items()])


def _sample_relation(n=500, seed=0):
    rng = np.random.default_rng(seed)
    schema = Schema(
        [
            ColumnSpec("id", Dtype.INT),
            ColumnSpec("cat", Dtype.STR),
            ColumnSpec("v", Dtype.INT),
        ],
        key="id",
    )
    return Relation(
        schema,
        {
            "id": np.arange(n),
            "cat": np.asarray(
                [f"k{int(i) % 7}" for i in rng.integers(0, 50, n)],
                dtype=object,
            ),
            "v": rng.integers(0, 20, n),
        },
    )


class TestMmapStore:
    def test_roundtrip_values(self, tmp_path):
        rel = _sample_relation()
        disk = rel.to_store(chunk_rows=64, directory=tmp_path / "s")
        assert disk.is_chunked and disk.chunk_rows == 64
        for name in rel.schema.names:
            assert np.array_equal(rel.column(name), disk.column(name))

    def test_column_files_are_real_npy(self, tmp_path):
        rel = _sample_relation(100)
        disk = rel.to_store(chunk_rows=32, directory=tmp_path / "s")
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        by_name = {c["name"]: c for c in manifest["columns"]}
        loaded = np.load(tmp_path / "s" / by_name["id"]["file"])
        assert np.array_equal(loaded, rel.column("id"))
        # Dictionary-encoded column: codes on disk + dictionary in the
        # manifest reconstruct the values.
        codes = np.load(tmp_path / "s" / by_name["cat"]["file"])
        decode = np.asarray(manifest["dictionaries"]["cat"], dtype=object)
        assert np.array_equal(decode[codes], rel.column("cat"))

    def test_pickles_as_directory_path(self, tmp_path):
        rel = _sample_relation(50)
        disk = rel.to_store(chunk_rows=16, directory=tmp_path / "s")
        clone = pickle.loads(pickle.dumps(disk.store))
        assert isinstance(clone, MmapColumnStore)
        assert np.array_equal(clone.column("cat"), rel.column("cat"))

    def test_empty_relation(self, tmp_path):
        rel = Relation.empty(_sample_relation(1).schema)
        disk = rel.to_store(chunk_rows=4, directory=tmp_path / "s")
        assert len(disk) == 0
        assert disk.group_counts(("cat", "v")) == {}
        assert disk.distinct(("cat",)) == []
        assert list(disk.store.chunk_bounds()) == []

    def test_not_a_store_errors(self, tmp_path):
        with pytest.raises(SchemaError):
            MmapColumnStore(tmp_path)

    def test_writer_rejects_ragged_blocks(self, tmp_path):
        writer = MmapStoreWriter(
            tmp_path / "s", _schema(a=Dtype.INT, b=Dtype.INT), chunk_rows=8
        )
        with pytest.raises(SchemaError):
            writer.append({"a": [1, 2], "b": [1]})
        writer.discard()

    def test_rejected_ragged_block_leaves_store_unchanged(self, tmp_path):
        writer = MmapStoreWriter(
            tmp_path / "s", _schema(a=Dtype.INT, b=Dtype.STR)
        )
        with pytest.raises(SchemaError, match="ragged"):
            writer.append({"a": [1, 2], "b": ["x"]})
        writer.append({"a": [3], "b": ["y"]})
        store = writer.finalize()
        assert store.column("a").tolist() == [3]
        assert store.column("b").tolist() == ["y"]
        assert store.dictionary("b") == ["y"]

    def test_writer_rejects_unserialisable_dictionary(self, tmp_path):
        """A dictionary column holds str only; a rejected block leaves
        the store as it was."""
        writer = MmapStoreWriter(
            tmp_path / "s", _schema(n=Dtype.INT, a=Dtype.STR)
        )
        values = np.empty(2, dtype=object)
        values[:] = ["t", frozenset({"t"})]  # hashable, not JSON-serialisable
        with pytest.raises(SchemaError, match="'a' .* type frozenset"):
            writer.append({"n": [1, 2], "a": values})
        store = writer.finalize()
        assert len(store.column("n")) == 0
        assert store.dictionary("a") == []

    def test_temp_directory_lifecycle(self):
        rel = _sample_relation(20)
        disk = rel.to_store(chunk_rows=8)  # no directory: temp-owned
        directory = disk.store.directory
        assert (directory / "manifest.json").exists()
        assert np.array_equal(disk.column("id"), rel.column("id"))

    def test_colliding_directory_is_rejected(self, tmp_path):
        target = tmp_path / "spill"
        _sample_relation(20).to_store(chunk_rows=8, directory=target)
        with pytest.raises(SchemaError, match="already exists"):
            MmapStoreWriter(target, _schema(a=Dtype.INT))
        # An empty pre-existing directory is fine (mkdir -p semantics).
        empty = tmp_path / "empty"
        empty.mkdir()
        writer = MmapStoreWriter(empty, _schema(a=Dtype.INT))
        writer.append({"a": np.asarray([1, 2], dtype=np.int64)})
        writer.finalize()

    def test_discard_removes_partial_named_directory(self, tmp_path):
        target = tmp_path / "partial"
        writer = MmapStoreWriter(target, _schema(a=Dtype.INT, b=Dtype.STR))
        writer.append(
            {
                "a": np.asarray([1, 2], dtype=np.int64),
                "b": np.asarray(["x", "y"], dtype=object),
            }
        )
        writer.discard()
        assert not target.exists()
        # The collision check no longer trips: the path is reusable.
        MmapStoreWriter(target, _schema(a=Dtype.INT)).finalize()

    def test_discard_after_finalize_keeps_store(self, tmp_path):
        target = tmp_path / "live"
        writer = MmapStoreWriter(target, _schema(a=Dtype.INT))
        writer.append({"a": np.asarray([3, 1], dtype=np.int64)})
        store = writer.finalize()
        writer.discard()  # no-op: never deletes a live store
        assert (target / "manifest.json").exists()
        np.testing.assert_array_equal(
            store.column("a"), np.asarray([3, 1], dtype=np.int64)
        )

    def test_aborted_to_store_cleans_up(self, tmp_path, monkeypatch):
        rel = _sample_relation(20)
        target = tmp_path / "abort"
        append = MmapStoreWriter.append
        blocks = []

        def failing_append(writer, block):
            blocks.append(block)
            if len(blocks) == 2:  # the second block hits a full disk
                raise OSError(28, "No space left on device")
            append(writer, block)

        with monkeypatch.context() as patch:
            patch.setattr(MmapStoreWriter, "append", failing_append)
            with pytest.raises(OSError):
                rel.to_store(chunk_rows=8, directory=target)
        assert not target.exists()
        # A later run can claim the same storage_dir.
        disk = rel.to_store(chunk_rows=8, directory=target)
        assert np.array_equal(disk.column("id"), rel.column("id"))


class TestChunkedKernels:
    @pytest.mark.parametrize("chunk_rows", [1, 7, 64, 10_000])
    def test_group_kernels_match_in_ram(self, chunk_rows):
        rel = _sample_relation()
        disk = rel.to_store(chunk_rows=chunk_rows)
        for names in [("cat",), ("v",), ("cat", "v"), ("v", "cat"), ()]:
            assert rel.group_counts(names) == disk.group_counts(names)
            ram, ooc = rel.group_indices(names), disk.group_indices(names)
            assert list(ram) == list(ooc)
            for key in ram:
                assert np.array_equal(ram[key], ooc[key])
            assert rel.distinct(names) == disk.distinct(names)

    def test_codes_match_in_ram(self):
        rel = _sample_relation()
        disk = rel.to_store(chunk_rows=37)
        for name in ("cat", "v"):
            ram_codes, ram_uniques = rel.codes(name)
            ooc_codes, ooc_uniques = disk.codes(name)
            assert np.array_equal(ram_codes, ooc_codes)
            assert np.array_equal(ram_uniques, ooc_uniques)

    def test_mask_streams_through_dictionary(self):
        rel = _sample_relation()
        disk = rel.to_store(chunk_rows=37)
        predicate = Predicate(
            {"cat": ValueSet(frozenset({"k1", "k3"})), "v": Interval(3, 15)}
        )
        assert np.array_equal(rel.mask(predicate), disk.mask(predicate))

    def test_key_lookup_and_rows(self):
        rel = _sample_relation()
        disk = rel.to_store(chunk_rows=37)
        lookups = [5, 499, 0, 123]
        assert np.array_equal(
            rel.key_positions(lookups), disk.key_positions(lookups)
        )
        assert rel.row(17) == disk.row(17)
        assert rel.row_tuple(3) == disk.row_tuple(3)

    def test_with_column_overlays_without_rewriting(self, tmp_path):
        rel = _sample_relation(64)
        disk = rel.to_store(chunk_rows=16, directory=tmp_path / "s")
        extra = np.arange(64) * 3
        grown = disk.with_column(ColumnSpec("w", Dtype.INT), extra)
        assert grown.is_chunked
        assert isinstance(grown.store, CompositeStore)
        assert np.array_equal(grown.column("w"), extra)
        # The original column files were not rewritten.
        assert set(p.name for p in (tmp_path / "s").iterdir()) == {
            "manifest.json", "col_0.npy", "col_1.npy", "col_2.npy",
        }

    def test_project_and_drop_stay_chunked(self):
        rel = _sample_relation()
        disk = rel.to_store(chunk_rows=37)
        projected = disk.project(["v", "cat"])
        assert projected.is_chunked
        assert projected.schema.names == ("v", "cat")
        assert projected.group_counts(("v",)) == rel.group_counts(("v",))
        assert disk.drop_column("v").schema.names == ("id", "cat")

    def test_csv_export_matches(self, tmp_path):
        from repro.relational import write_csv

        rel = _sample_relation(100)
        disk = rel.to_store(chunk_rows=9)
        ram_csv, ooc_csv = tmp_path / "ram.csv", tmp_path / "ooc.csv"
        write_csv(rel, ram_csv)
        write_csv(disk, ooc_csv)
        assert ram_csv.read_text() == ooc_csv.read_text()


class TestFrozenColumns:
    def test_columns_are_read_only(self):
        rel = _sample_relation(10)
        with pytest.raises(ValueError):
            rel.column("v")[0] = 99
        with pytest.raises(ValueError):
            rel.columns["cat"][0] = "x"

    def test_projection_shares_frozen_arrays(self):
        rel = _sample_relation(10)
        projected = rel.project(["v"])
        with pytest.raises(ValueError):
            projected.column("v")[0] = 99


class TestNumpyStoreContract:
    def test_single_chunk(self):
        store = NumpyColumnStore({"a": np.arange(5)})
        assert not store.is_chunked
        assert list(store.chunk_bounds()) == [(0, 5)]
        with pytest.raises(SchemaError):
            store.codes_slice("a", 0, 5)
        assert store.dictionary("a") is None

    def test_composite_rejects_ragged_parts(self):
        a = NumpyColumnStore({"a": np.arange(5)})
        b = NumpyColumnStore({"b": np.arange(6)})
        with pytest.raises(SchemaError):
            CompositeStore({"a": (a, "a"), "b": (b, "b")})


# ---------------------------------------------------------------------------
# RAM vs chunked mmap: every kernel returns identical Python objects —
# same values, same dict ordering, same error messages.
# ---------------------------------------------------------------------------

_CATS = ["db", "ai", "os", ""]

_HYPOTHESIS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _child(fks, ages, cats):
    return Relation(
        Schema(
            [
                ColumnSpec("fk", Dtype.INT),
                ColumnSpec("age", Dtype.INT),
                ColumnSpec("cat", Dtype.STR),
            ]
        ),
        {
            "fk": np.asarray(fks, dtype=np.int64),
            "age": np.asarray(ages, dtype=np.int64),
            "cat": np.asarray(cats, dtype=object),
        },
    )


def _parent(keys, caps):
    return Relation(
        Schema([ColumnSpec("id", Dtype.INT), ColumnSpec("cap", Dtype.INT)],
               key="id"),
        {
            "id": np.asarray(keys, dtype=np.int64),
            "cap": np.asarray(caps, dtype=np.int64),
        },
    )


@st.composite
def _child_data(draw):
    n = draw(st.integers(0, 25))
    fks = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    ages = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n))
    cats = draw(st.lists(st.sampled_from(_CATS), min_size=n, max_size=n))
    return fks, ages, cats


class TestKernelEquivalence:
    @_HYPOTHESIS
    @given(data=_child_data(), chunk_rows=st.sampled_from([1, 3, 1024]))
    def test_group_counts_distinct(self, data, chunk_rows):
        ram = _child(*data)
        chunked = ram.to_store(chunk_rows=chunk_rows)
        for names in (["age"], ["cat"], ["age", "cat"], ["fk", "cat"]):
            # Dict *ordering* is part of the contract too.
            assert list(ram.group_counts(names).items()) == list(
                chunked.group_counts(names).items()
            )
            assert ram.distinct(names) == chunked.distinct(names)

    @_HYPOTHESIS
    @given(data=_child_data(), chunk_rows=st.sampled_from([1, 4, 1024]))
    def test_fk_join(self, data, chunk_rows):
        ram = _child(*data)
        chunked = ram.to_store(chunk_rows=chunk_rows)
        parent = _parent([1, 2, 3, 4, 5], [10, 20, 30, 40, 50])
        a, b = fk_join(ram, parent, "fk"), fk_join(chunked, parent, "fk")
        assert a.schema == b.schema and len(a) == len(b)
        for name in a.schema.names:
            assert np.array_equal(a.column(name), b.column(name)), name

    @_HYPOTHESIS
    @given(data=_child_data(), chunk_rows=st.sampled_from([1, 4, 1024]))
    def test_count_ccs_and_dc_error(self, data, chunk_rows):
        ram = _child(*data)
        chunked = ram.to_store(chunk_rows=chunk_rows)
        ccs = [
            CardinalityConstraint(Predicate({"age": Interval(10, 40)}), 3),
            CardinalityConstraint(
                [
                    Predicate({"cat": ValueSet(["db", ""])}),
                    Predicate({"age": Interval(50, 60)}),
                ],
                2,
            ),
        ]
        dcs = [
            DenialConstraint(
                [
                    UnaryAtom(0, "cat", "==", "db"),
                    UnaryAtom(1, "cat", "==", "db"),
                ]
            ),
            DenialConstraint([BinaryAtom(0, "age", "<", 1, "age", -5)]),
        ]
        assert count_ccs(ram, ccs) == count_ccs(chunked, ccs)
        expected = dc_error_naive(ram, "fk", dcs)
        assert dc_error(ram, "fk", dcs) == expected
        assert dc_error(chunked, "fk", dcs) == expected


@st.composite
def _wide_relations(draw):
    """A relation whose ``u``/``v``/``w`` columns have ``k >= 11``
    distinct values each, so grouping on all three spans a key space
    above ``max(4n, 1024)``, next to low-cardinality ``a``/``s``."""
    k = draw(st.integers(11, 16))
    extra = draw(st.lists(st.integers(0, k - 1), max_size=30))
    picks = draw(st.permutations(list(range(k)) + extra))
    n = len(picks)
    us = draw(st.lists(st.integers(-10**6, 10**6), min_size=k, max_size=k,
                       unique=True))
    ws = draw(st.lists(st.integers(-50, 50), min_size=k, max_size=k,
                       unique=True))
    pool = [(us[i], f"v{i:02d}", ws[i]) for i in range(k)]
    a = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    s = draw(st.lists(st.sampled_from(_CATS), min_size=n, max_size=n))
    columns = {
        "a": np.asarray(a, dtype=np.int64),
        "s": np.asarray(s, dtype=object),
        "u": np.asarray([pool[i][0] for i in picks], dtype=np.int64),
        "v": np.asarray([pool[i][1] for i in picks], dtype=object),
        "w": np.asarray([pool[i][2] for i in picks], dtype=np.int64),
    }
    schema = Schema(
        [
            ColumnSpec(name, Dtype.STR if name in ("s", "v") else Dtype.INT)
            for name in columns
        ]
    )
    return Relation(schema, columns)


@st.composite
def _assignments(draw):
    """A Phase-I assignment with partial, complete and invalid rows."""
    from repro.phase1.assignment import ViewAssignment

    q = draw(st.integers(0, 3))
    attrs = ("B0", "B1", "B2")[:q]
    n = draw(st.integers(0, 40))
    assignment = ViewAssignment(n=n, r2_attrs=attrs)
    for row in range(n):
        values = {
            attr: draw(st.sampled_from(["x", "y", "", "z"]))
            for attr in attrs
            if draw(st.integers(0, 5))
        }
        if values or draw(st.booleans()):
            assignment.assign(row, values)
    if n:
        assignment.mark_invalid_rows(
            draw(st.lists(st.integers(0, n - 1), max_size=4))
        )
    return assignment


class TestChunkMergeGrouping:
    """Chunked grouping equals the in-RAM result item for item and in
    order, at chunk sizes that split groups across chunks."""

    @_HYPOTHESIS
    @given(rel=_wide_relations(), chunk=st.sampled_from([1, 2, 7, None]))
    def test_relation_groups(self, rel, chunk):
        n = len(rel)
        disk = rel.to_store(chunk_rows=n + 1 if chunk is None else chunk)
        for names in ([], ["a"], ["s"], ["s", "a"], ["a", "s", "u"],
                      ["w", "v", "u"]):
            ram, ooc = rel.group_indices(names), disk.group_indices(names)
            assert list(ram) == list(ooc)
            for key in ram:
                assert ram[key].tolist() == ooc[key].tolist()
        cells = 1
        for name in ("u", "v", "w"):
            cells *= len(rel.codes(name)[1])
        assert cells > max(4 * n, 1024)  # the sort path, not bincount
        assert list(rel.group_counts(["u", "v", "w"]).items()) == list(
            disk.group_counts(["u", "v", "w"]).items()
        )

    @_HYPOTHESIS
    @given(assignment=_assignments())
    def test_group_by_combo(self, assignment):
        whole = list(assignment.group_by_combo().items())
        for chunk_rows in (1, 2, 7):
            assert list(
                assignment.group_by_combo(chunk_rows=chunk_rows).items()
            ) == whole


class TestFkJoinErrors:
    """Chunked children raise numpy's exact messages, in row order."""

    def _messages(self, r1, r2):
        out = []
        for child in (r1, r1.to_store(chunk_rows=1)):
            with pytest.raises(SchemaError) as excinfo:
                fk_join(child, r2, "fk")
            out.append(str(excinfo.value))
        assert out[0] == out[1]
        return out[0]

    def test_duplicate_key_message(self):
        r1 = _child([1, 2], [10, 20], ["db", "ai"])
        message = self._messages(r1, _parent([2, 1, 2, 3], [1, 2, 3, 4]))
        assert "duplicate key value 2" in message

    def test_duplicate_beats_missing_on_empty_child(self):
        message = self._messages(_child([], [], []), _parent([1, 1], [1, 2]))
        assert "duplicate key value 1" in message

    def test_missing_key_message_first_row_order(self):
        # Both 9 and 7 are missing; the first missing *by child row
        # order* (9) is reported, not the smallest value.
        r1 = _child([9, 7, 1], [10, 20, 30], ["db", "ai", "os"])
        message = self._messages(r1, _parent([1, 2], [1, 2]))
        assert "9" in message and "7" not in message


class TestCornerCases:
    def test_empty_relation(self):
        ram = _child([], [], [])
        cc = CardinalityConstraint(Predicate({"age": Interval(0, 9)}), 1)
        for rel in (ram, ram.to_store(chunk_rows=4)):
            assert rel.group_counts(["age", "cat"]) == {}
            assert rel.distinct(["cat"]) == []
            assert count_ccs(rel, [cc]) == [0]
            assert dc_error(rel, "fk", []) == 0.0

    def test_scalar_types_match(self):
        # Keys must be plain Python scalars on every backend (np.int64
        # keys would break dict lookups downstream).
        ram = _child([1, 1, 2], [10, 10, 20], ["db", "db", ""])
        for rel in (ram, ram.to_store(chunk_rows=2)):
            for key in rel.group_counts(["age", "cat"]):
                assert type(key[0]) is int
                assert type(key[1]) is str


def test_group_by_combo_partitions():
    """Phase II's partitioner agrees on a real Phase-I assignment for an
    in-RAM and a chunked child relation (combo decoding included)."""
    from repro.phase1.hybrid import run_phase1
    from repro.phase2.fk_assignment import partition_by_combo

    r1 = Relation(
        Schema(
            [
                ColumnSpec("pid", Dtype.INT),
                ColumnSpec("age", Dtype.INT),
                ColumnSpec("cat", Dtype.STR),
            ],
            key="pid",
        ),
        {
            "pid": np.arange(8, dtype=np.int64),
            "age": np.asarray(
                [25, 30, 25, 41, 30, 25, 60, 41], dtype=np.int64
            ),
            "cat": np.asarray(
                ["db", "ai", "db", "", "ai", "os", "db", ""], dtype=object
            ),
        },
    )
    ccs = [CardinalityConstraint(Predicate({"age": Interval(20, 35)}), 4)]
    phase1 = run_phase1(r1, _parent([1, 2, 3], [5, 5, 5]), ccs,
                        r1_attrs=["age", "cat"])
    base = partition_by_combo(phase1.assignment, r1)
    assert base == phase1.assignment.group_by_combo()
    for combo in base:
        assert all(type(v) is int for v in combo if isinstance(v, int))
    chunked = partition_by_combo(phase1.assignment, r1.to_store(chunk_rows=3))
    assert list(chunked.items()) == list(base.items())


class TestEmptyStringSemantics:
    """``""`` is an ordinary category on every backend: its own group,
    never conflated with ``0`` or any other falsy value."""

    def _relations(self):
        ram = Relation(
            Schema(
                [
                    ColumnSpec("fk", Dtype.INT),
                    ColumnSpec("name", Dtype.STR),
                    ColumnSpec("age", Dtype.INT),
                ]
            ),
            {
                "fk": np.asarray([1, 2, 1, 2, 1], dtype=np.int64),
                "name": np.asarray(["", "a", "", "b", "a"], dtype=object),
                "age": np.asarray([0, 10, 0, 20, 10], dtype=np.int64),
            },
        )
        return ram, ram.to_store(chunk_rows=2)

    def test_group_counts_keep_empty_string_distinct(self):
        for rel in self._relations():
            counts = rel.group_counts(["name"])
            assert counts == {("",): 2, ("a",): 2, ("b",): 1}
            assert all(type(key[0]) is str for key in counts)
            assert ("",) in rel.distinct(["name"])

    def test_empty_string_never_collides_with_zero(self):
        for rel in self._relations():
            counts = rel.group_counts(["name", "age"])
            assert counts == {("", 0): 2, ("a", 10): 2, ("b", 20): 1}

    def test_value_set_matches_empty_string_only(self):
        cc = CardinalityConstraint(Predicate({"name": ValueSet([""])}), 2)
        for rel in self._relations():
            assert count_ccs(rel, [cc]) == [2]

    def test_unary_dc_on_empty_string(self):
        dcs = [
            DenialConstraint(
                [
                    UnaryAtom(0, "name", "==", ""),
                    UnaryAtom(1, "name", "==", ""),
                ]
            )
        ]
        for rel in self._relations():
            # Rows 0 and 2 share fk=1 and both have name="".
            assert dc_error(rel, "fk", dcs) == 2 / 5
