"""String columns: the str-only contract, the hashing factorizer, the
store writer's dictionary encoding and the columnar content hash.

A STR column holds ``str`` only, checked once where values enter and
never again on relations derived from relations.  The factorizer must
give exactly ``np.unique(..., return_inverse=True)`` on string columns,
and the store writer exactly the dictionary and codes of the previous
release's per-block ``np.unique`` encoder (kept below as
``_previous_writer_codes``).  Codes, group order and the content hash
must not depend on how a column is chunked, in RAM or on disk.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.relational import (
    ColumnSpec,
    Dtype,
    Relation,
    Schema,
    read_csv,
    read_csv_infer,
    write_csv,
)
from repro.relational import relation as relation_module
from repro.relational import store as store_module
from repro.relational.join import fk_join
from repro.relational.relation import _HASH_SLICE, _factorize
from repro.relational.store import MmapColumnStore, MmapStoreWriter
from repro.spec import RelationSpec

strings = st.text(st.sampled_from(list("ab é€-0\n")), max_size=4)
str_columns = st.one_of(
    st.lists(strings, max_size=40),
    st.lists(st.sampled_from(["", "x", "é"]), min_size=0, max_size=2),
    st.builds(lambda v, n: [v] * n, strings, st.integers(1, 30)),
)


def _objects(values: Sequence[object]) -> np.ndarray:
    return np.fromiter(values, dtype=object, count=len(values))


def _relation(columns: Dict[str, Sequence[object]]) -> Relation:
    schema = Schema(
        [
            ColumnSpec(
                name,
                Dtype.INT
                if isinstance(values, np.ndarray) and values.dtype != object
                else Dtype.STR,
            )
            for name, values in columns.items()
        ]
    )
    return Relation(schema, dict(columns))


#: The column ``to_store(chunk_rows=2)`` once encoded differently on
#: disk and in RAM; a STR column may no longer hold the ``1``.
MIXED = ["b", "a", 1, "b"]
STR_SCHEMA = Schema([ColumnSpec("w", Dtype.STR)])


def _manifest_with_int(tmp_path):
    directory = tmp_path / "s"
    _relation({"w": _objects(["b", "a"])}).to_store(2, directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["dictionaries"]["w"][1] = 1
    (directory / "manifest.json").write_text(json.dumps(manifest))
    return MmapColumnStore(directory)


def _writer_append(tmp_path):
    writer = MmapStoreWriter(tmp_path / "s", STR_SCHEMA)
    try:
        writer.append({"w": np.asarray(MIXED, dtype=object)})
    finally:
        writer.discard()


ENTRY_POINTS = {
    "mapping": lambda _: Relation(STR_SCHEMA, {"w": MIXED}),
    "from_rows": lambda _: Relation.from_rows(
        STR_SCHEMA, [(v,) for v in MIXED]
    ),
    "from_dicts": lambda _: Relation.from_dicts(
        STR_SCHEMA, [{"w": v} for v in MIXED]
    ),
    "from_columns": lambda _: Relation.from_columns({"w": MIXED}),
    "with_column": lambda _: Relation.from_columns(
        {"k": [1, 2, 3, 4]}
    ).with_column(ColumnSpec("w", Dtype.STR), MIXED),
    "append_rows": lambda _: Relation(STR_SCHEMA, {"w": ["b"]}).append_rows(
        [(v,) for v in MIXED]
    ),
    "manifest": _manifest_with_int,
    "writer": _writer_append,
}


class TestTypedColumns:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_non_str_value_is_rejected(self, entry, tmp_path):
        with pytest.raises(
            SchemaError, match="column 'w' holds a value of type int"
        ):
            ENTRY_POINTS[entry](tmp_path)

    def test_inline_spec_error_names_the_relation(self):
        spec = RelationSpec(name="r", columns={"w": MIXED})
        with pytest.raises(
            SchemaError, match="relation 'r': column 'w' .* type int"
        ):
            spec.build()

    def test_declared_str_coerces_before_the_check(self):
        spec = RelationSpec(
            name="r", columns={"w": MIXED}, dtypes={"w": "str"}
        )
        assert spec.build().column("w").tolist() == ["b", "a", "1", "b"]

    def test_derived_relations_and_csv_reads_are_not_rescanned(
        self, tmp_path, monkeypatch
    ):
        checked = []

        def counting(column, values):
            checked.append((column, len(list(values))))

        rng = np.random.default_rng(5)
        words = _objects(["x", "y", "é"])
        parent = _relation(
            {"hid": np.arange(4), "Area": words[rng.integers(0, 3, 4)]}
        )
        parent = Relation(
            Schema(parent.schema.columns, key="hid"), parent.columns
        )
        child = _relation(
            {
                "pid": np.arange(50),
                "hid": rng.integers(0, 4, 50),
                "Rel": words[rng.integers(0, 3, 50)],
            }
        )
        write_csv(child, tmp_path / "child.csv")
        for module in (relation_module, store_module):
            monkeypatch.setattr(module, "require_str", counting)

        mask = child.column("pid") % 2 == 0
        child.take([3, 1, 4]).where_mask(np.asarray([True, False, True]))
        child.where_mask(mask).concat(child.where_mask(~mask)).copy()
        child.project(["Rel", "pid"])
        view = fk_join(child, parent, "hid")
        read_csv(tmp_path / "child.csv", child.schema)
        read_csv_infer(tmp_path / "child.csv")
        RelationSpec(
            "c", csv=str(tmp_path / "child.csv"), dtypes={"hid": "str"}
        ).build()
        assert checked == []
        view.with_column(ColumnSpec("note", Dtype.STR), ["n"] * 50)
        assert checked == [("note", 50)]


class TestFactorize:
    @settings(max_examples=200, deadline=None)
    @given(str_columns)
    def test_str_columns_match_np_unique(self, values):
        arr = _objects(values)
        codes, uniques = _factorize(arr)
        want_uniques, want_codes = np.unique(arr, return_inverse=True)
        assert codes.dtype == np.int64
        assert codes.tolist() == want_codes.tolist()
        assert uniques.dtype == object
        assert uniques.tolist() == want_uniques.tolist()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=30))
    def test_int64_columns_are_unchanged(self, values):
        arr = np.asarray(values, dtype=np.int64)
        codes, uniques = _factorize(arr)
        want_uniques, want_codes = np.unique(arr, return_inverse=True)
        assert codes.dtype == np.int64
        assert np.array_equal(codes, want_codes)
        assert uniques.dtype == np.int64
        assert np.array_equal(uniques, want_uniques)

    def test_numpy_strings_factorize_like_str(self):
        arr = _objects([np.str_("b"), "a", np.str_("a")])
        codes, uniques = _factorize(arr)
        assert codes.tolist() == [1, 0, 0]
        assert uniques.tolist() == ["a", "b"]


class TestCodesOnDisk:
    @pytest.mark.parametrize("chunk_rows", [1, 3, 777])
    def test_codes_match_in_ram(self, chunk_rows):
        rng = np.random.default_rng(7)
        n = 2_000
        words = _objects(["", "z", "é", "a b", "Web", "Store"])
        rel = _relation(
            {
                "w": words[rng.integers(0, len(words), n)],
                "k": _objects([f"k{i}" for i in rng.permutation(n)]),
                "v": rng.integers(-5, 5, n),
            }
        )
        disk = rel.to_store(chunk_rows=chunk_rows)
        for name in rel.schema.names:
            ram_codes, ram_uniques = rel.codes(name)
            ooc_codes, ooc_uniques = disk.codes(name)
            assert np.array_equal(ram_codes, ooc_codes)
            assert ram_uniques.tolist() == ooc_uniques.tolist()

    @pytest.mark.parametrize("chunk_rows", [1, 3, 777])
    @pytest.mark.parametrize(
        "values",
        [
            ["b", "a", "1", "b"],
            ["", "é", "a b", "Web", "é", "", "Store"] * 300,
        ],
    )
    def test_groups_and_hash_match_in_ram(self, chunk_rows, values):
        rel = _relation(
            {"w": _objects(values), "v": np.arange(len(values)) % 3}
        )
        disk = rel.to_store(chunk_rows=chunk_rows)
        for names in (["w"], ["w", "v"], ["v", "w"]):
            ram, ooc = rel.group_indices(names), disk.group_indices(names)
            assert list(ram) == list(ooc)
            assert all(np.array_equal(ram[k], ooc[k]) for k in ram)
            assert rel.group_counts(names) == disk.group_counts(names)
        assert disk.codes("w")[0].tolist() == rel.codes("w")[0].tolist()
        assert disk.content_hash() == rel.content_hash()


def _previous_writer_codes(
    table: Dict[object, int], seen: List[object], values: np.ndarray
) -> np.ndarray:
    """The previous release's ``MmapStoreWriter._encode`` on string
    blocks, verbatim in substance: ``np.unique`` on the block and one
    dictionary probe per unique."""

    def code_of(value: object) -> int:
        code = table.get(value)
        if code is None:
            code = len(seen)
            table[value] = code
            seen.append(value)
        return code

    uniques, inverse = np.unique(values, return_inverse=True)
    unique_codes = np.fromiter(
        map(code_of, uniques.tolist()), dtype=np.int64, count=len(uniques)
    )
    return unique_codes[inverse.reshape(-1)]


class TestStoreWriter:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from(["b", "a", "", "é", "c a", "a"])),
            min_size=1,
            max_size=5,
        )
    )
    def test_dictionary_and_codes_match_previous_encoder(
        self, tmp_path_factory, blocks
    ):
        directory = tmp_path_factory.mktemp("store")
        writer = MmapStoreWriter(directory / "s", STR_SCHEMA)
        table: Dict[object, int] = {}
        seen: List[object] = []
        want = []
        for block in blocks:
            writer.append({"w": block})
            want.append(_previous_writer_codes(table, seen, _objects(block)))
        store = writer.finalize()
        rows = sum(map(len, blocks))
        assert store.dictionary("w") == seen
        assert store.codes_slice("w", 0, rows).tolist() == (
            np.concatenate(want).tolist() if want else []
        )

    def test_non_str_block_is_rejected(self, tmp_path):
        writer = MmapStoreWriter(tmp_path / "s", STR_SCHEMA)
        writer.append({"w": ["b", "a"]})
        with pytest.raises(SchemaError, match="'w' .* type int"):
            writer.append({"w": np.asarray(["c", 2], dtype=object)})
        writer.append({"w": ["c", "b"]})
        store = writer.finalize()
        assert store.dictionary("w") == ["a", "b", "c"]
        assert store.column("w").tolist() == ["b", "a", "c", "b"]


class TestContentHash:
    @pytest.mark.parametrize(
        "chunk_rows",
        [1_000, _HASH_SLICE - 1, _HASH_SLICE + 1, 2 * _HASH_SLICE + 5],
    )
    def test_in_ram_equals_on_disk_across_slices(self, chunk_rows):
        rng = np.random.default_rng(3)
        n = 2 * _HASH_SLICE + 3_000
        words = np.asarray(["", "Web", "é€", "a,b", "x\ny"], dtype=object)
        rare = words[rng.integers(0, len(words), n)].copy()
        rare[rng.integers(0, n, 20)] = "17"
        rel = _relation(
            {
                "w": words[rng.integers(0, len(words), n)],
                "m": rare,
                "v": rng.integers(-9, 9, n),
            }
        )
        disk = rel.to_store(chunk_rows=chunk_rows)
        assert disk.content_hash() == rel.content_hash()

    def test_separators_cannot_collide(self):
        left = _relation({"w": _objects(["ab", "c"])})
        right = _relation({"w": _objects(["a", "bc"])})
        assert left.content_hash() != right.content_hash()

    def test_int_object_differs_from_its_text(self):
        as_int = _relation({"w": np.asarray([5])})
        as_text = _relation({"w": _objects(["5"])})
        assert as_int.content_hash() != as_text.content_hash()

    def test_numpy_str_hashes_like_str(self):
        numpy_str = _relation({"w": _objects([np.str_("é"), np.str_("b")])})
        plain = _relation({"w": _objects(["é", "b"])})
        assert numpy_str.content_hash() == plain.content_hash()

    def test_pinned_digest(self):
        """A change to the hash layout must be deliberate: it changes
        every edge fingerprint, so ``_FINGERPRINT_VERSION`` moves too."""
        rel = Relation(
            Schema(
                [
                    ColumnSpec("id", Dtype.INT),
                    ColumnSpec("name", Dtype.STR),
                    ColumnSpec("misc", Dtype.STR),
                ],
                key="id",
            ),
            {
                "id": np.asarray([1, 2, 3]),
                "name": _objects(["Web", "", "é"]),
                "misc": _objects(["5", "", "None"]),
            },
        )
        assert rel.content_hash() == PINNED_DIGEST


PINNED_DIGEST = (
    "856d86f1917a335d60a8a5b8787c1b8d2911ac710809762c6b8892508cc4eafa"
)
