"""CSV round-tripping."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.relational.csvio import (
    BLOCK_ROWS,
    infer_csv_schema,
    read_csv,
    read_csv_infer,
    read_csv_store,
    write_csv,
)
from repro.relational.relation import Relation
from repro.relational.schema import ColumnSpec, Schema
from repro.relational.types import Dtype


@pytest.fixture
def relation():
    return Relation.from_columns(
        {"pid": [1, 2], "Age": [30, 40], "Rel": ["Owner", "Spouse"]},
        key="pid",
    )


def test_round_trip(tmp_path, relation):
    path = tmp_path / "persons.csv"
    write_csv(relation, path)
    loaded = read_csv(path, relation.schema)
    assert loaded.to_rows() == relation.to_rows()
    assert loaded.schema.dtype("Age") is Dtype.INT


def test_key_override(tmp_path, relation):
    path = tmp_path / "persons.csv"
    write_csv(relation, path)
    schema = Schema(list(relation.schema.columns))  # keyless copy
    loaded = read_csv(path, schema, key="pid")
    assert loaded.schema.key == "pid"


def test_header_mismatch_rejected(tmp_path, relation):
    path = tmp_path / "persons.csv"
    write_csv(relation, path)
    wrong = Schema([ColumnSpec("x", Dtype.INT)])
    with pytest.raises(SchemaError):
        read_csv(path, wrong)


def test_empty_file_rejected(tmp_path, relation):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(SchemaError):
        read_csv(path, relation.schema)


def test_ragged_rows_rejected_with_line_number(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b,c\n1,2,3\n4,5\n7,8,9\n")
    with pytest.raises(SchemaError, match="ragged.csv:3"):
        read_csv_infer(path)


def test_block_streaming_matches_single_pass(tmp_path, relation):
    path = tmp_path / "persons.csv"
    write_csv(relation, path)
    loaded = read_csv(path, relation.schema, block_rows=1)
    assert loaded.to_rows() == relation.to_rows()
    inferred = read_csv_infer(path, key="pid", block_rows=1)
    assert inferred.to_rows() == relation.to_rows()


def test_read_csv_store_streams_to_disk(tmp_path, relation):
    path = tmp_path / "persons.csv"
    write_csv(relation, path)
    disk = read_csv_store(
        path, relation.schema, chunk_rows=1,
        directory=tmp_path / "store", block_rows=1,
    )
    assert disk.is_chunked
    assert disk.to_rows() == relation.to_rows()
    assert (tmp_path / "store" / "manifest.json").exists()


def test_csv_round_trip_preserves_empty_string(tmp_path):
    relation = Relation.from_columns(
        {"name": ["", "a", "", "b", "a"], "age": [0, 10, 0, 20, 10]}
    )
    path = tmp_path / "rel.csv"
    write_csv(relation, path)
    loaded = read_csv_store(
        path, relation.schema, chunk_rows=2, directory=tmp_path / "store"
    )
    assert np.array_equal(loaded.column("name"), relation.column("name"))
    assert loaded.group_counts(["name", "age"]) == (
        relation.group_counts(["name", "age"])
    )


INVALID_INT_LITERALS = ["1_000", " 3", "3 ", "+7", "00", "-0", "٣", "1e3"]


@pytest.mark.parametrize("literal", INVALID_INT_LITERALS)
def test_non_canonical_int_literal_rejected(tmp_path, literal):
    """Strict parsing: only canonical base-10 ASCII integers pass."""
    path = tmp_path / "strict.csv"
    path.write_text(f"pid,Age\n1,30\n2,{literal}\n")
    schema = Schema(
        [ColumnSpec("pid", Dtype.INT), ColumnSpec("Age", Dtype.INT)],
        key="pid",
    )
    with pytest.raises(SchemaError, match="strict.csv:3"):
        read_csv(path, schema)


@pytest.mark.parametrize("literal", INVALID_INT_LITERALS)
def test_inference_demotes_non_canonical_ints_to_str(tmp_path, literal):
    path = tmp_path / "strict.csv"
    path.write_text(f"pid,Age\n1,30\n2,{literal}\n")
    schema = infer_csv_schema(path, key="pid")
    assert schema.dtype("Age") is Dtype.STR
    assert schema.dtype("pid") is Dtype.INT


def test_canonical_negative_ints_accepted(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("pid,Delta\n1,-30\n2,0\n3,-1\n")
    loaded = read_csv_infer(path, key="pid")
    assert loaded.schema.dtype("Delta") is Dtype.INT
    assert np.array_equal(loaded.column("Delta"), [-30, 0, -1])


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


@pytest.mark.parametrize("reader", [read_csv_infer, infer_csv_schema])
def test_int64_bounds_stay_int(tmp_path, reader):
    path = tmp_path / "bounds.csv"
    path.write_text(f"pid,big\n1,{INT64_MIN}\n2,{INT64_MAX}\n")
    result = reader(path, key="pid")
    schema = result if isinstance(result, Schema) else result.schema
    assert schema.dtype("big") is Dtype.INT
    if isinstance(result, Relation):
        assert result.column("big").tolist() == [INT64_MIN, INT64_MAX]


@pytest.mark.parametrize(
    "literal",
    [str(INT64_MAX + 1), str(INT64_MIN - 1), "99999999999999999999"],
)
def test_out_of_range_int_is_inferred_str(tmp_path, literal):
    path = tmp_path / "big.csv"
    path.write_text(f"pid,big\n1,7\n2,{literal}\n")
    assert infer_csv_schema(path).dtype("big") is Dtype.STR
    loaded = read_csv_infer(path, key="pid")
    assert loaded.schema.dtype("big") is Dtype.STR
    assert loaded.column("big").tolist() == ["7", literal]
    assert loaded.schema.dtype("pid") is Dtype.INT


@pytest.mark.parametrize(
    "literal",
    [str(INT64_MAX + 1), str(INT64_MIN - 1), "99999999999999999999"],
)
@pytest.mark.parametrize("typed_reader", [read_csv, read_csv_store])
def test_out_of_range_int_rejected_by_typed_read(
    tmp_path, literal, typed_reader
):
    path = tmp_path / "big.csv"
    path.write_text(f"pid,big\n1,7\n2,{literal}\n")
    schema = Schema(
        [ColumnSpec("pid", Dtype.INT), ColumnSpec("big", Dtype.INT)],
        key="pid",
    )
    with pytest.raises(SchemaError, match=rf"big\.csv:3: .*'{literal}'"):
        typed_reader(path, schema)


def test_ragged_row_after_multiline_field_cites_physical_line(tmp_path):
    path = tmp_path / "multi.csv"
    path.write_text('a,b\n"x\ny",1\n"p",2\nq\n')
    for block_rows in (1, 2, BLOCK_ROWS):
        with pytest.raises(SchemaError, match=r"multi\.csv:5: expected 2"):
            read_csv_infer(path, block_rows=block_rows)


def test_bad_int_after_multiline_field_cites_physical_line(tmp_path):
    path = tmp_path / "multi.csv"
    path.write_text('a,b\n"x\ny",1\n"p",+2\n')
    schema = Schema([ColumnSpec("a", Dtype.STR), ColumnSpec("b", Dtype.INT)])
    for block_rows in (1, 2, BLOCK_ROWS):
        with pytest.raises(SchemaError, match=r"multi\.csv:4: .*'\+2'"):
            read_csv(path, schema, block_rows=block_rows)
