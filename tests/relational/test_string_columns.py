"""String columns: the hashing factorizer, the store writer's dictionary
encoding and the columnar content hash.

The factorizer must give exactly ``np.unique(..., return_inverse=True)``
on string columns, and the store writer exactly the dictionary and codes
of the previous release's per-block ``np.unique`` encoder (kept below as
``_previous_writer_codes``).  The content hash must not depend on how a
column is chunked, in RAM or on disk.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import ColumnSpec, Dtype, Relation, Schema
from repro.relational.relation import _HASH_SLICE, _factorize
from repro.relational.store import MmapColumnStore, MmapStoreWriter

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

    def test_unorderable_mixed_column_keeps_first_seen_codes(self):
        arr = _objects(["b", 1, "a", None, 1, "b"])
        codes, uniques = _factorize(arr)
        assert codes.tolist() == [0, 1, 2, 3, 1, 0]
        assert uniques.tolist() == ["b", 1, "a", None]

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


def _previous_writer_codes(
    table: Dict[object, int], seen: List[object], values: np.ndarray
) -> np.ndarray:
    """The previous release's ``MmapStoreWriter._encode``, verbatim in
    substance: ``np.unique`` on the block, one dictionary probe per
    unique, and a row-order fallback for unsortable blocks."""

    def code_of(value: object) -> int:
        code = table.get(value)
        if code is None:
            code = len(seen)
            table[value] = code
            seen.append(value)
        return code

    try:
        uniques, inverse = np.unique(values, return_inverse=True)
    except TypeError:
        return np.fromiter(
            map(code_of, values.tolist()), dtype=np.int64, count=len(values)
        )
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
        writer = MmapStoreWriter(directory / "s", [("w", "dict")])
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

    def test_unsortable_blocks_match_previous_encoder(self, tmp_path):
        blocks = [["b", "a", "b"], [2, "a", 1, None], ["c", "b"]]
        writer = MmapStoreWriter(tmp_path / "s", [("w", "dict")])
        table: Dict[object, int] = {}
        seen: List[object] = []
        want = []
        for block in blocks:
            writer.append({"w": np.asarray(block, dtype=object)})
            want.append(_previous_writer_codes(table, seen, _objects(block)))
        store = writer.finalize()
        assert store.dictionary("w") == seen == ["a", "b", 2, 1, None, "c"]
        assert store.codes_slice("w", 0, 9).tolist() == (
            np.concatenate(want).tolist()
        )
        reopened = MmapColumnStore(tmp_path / "s")
        assert reopened.column("w").tolist() == sum(blocks, [])


class TestContentHash:
    @pytest.mark.parametrize(
        "chunk_rows",
        [1_000, _HASH_SLICE - 1, _HASH_SLICE + 1, 2 * _HASH_SLICE + 5],
    )
    def test_in_ram_equals_on_disk_across_slices(self, chunk_rows):
        rng = np.random.default_rng(3)
        n = 2 * _HASH_SLICE + 3_000
        words = np.asarray(["", "Web", "é€", "a,b", "x\ny"], dtype=object)
        mixed = words[rng.integers(0, len(words), n)].copy()
        mixed[rng.integers(0, n, 20)] = 17
        rel = _relation(
            {
                "w": words[rng.integers(0, len(words), n)],
                "m": mixed,
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
        as_int = _relation({"w": _objects([5])})
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
                "misc": _objects(["5", 5, None]),
            },
        )
        assert rel.content_hash() == PINNED_DIGEST


PINNED_DIGEST = (
    "aa27e794abbb319158cbb93873bd2c9bceaa6a78af7c979b2e2ae369c1b98e19"
)
