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
    path.write_text(f"pid,Age\n1,30\n2,{literal}\n", encoding="utf-8")
    schema = Schema(
        [ColumnSpec("pid", Dtype.INT), ColumnSpec("Age", Dtype.INT)],
        key="pid",
    )
    with pytest.raises(SchemaError, match="strict.csv:3"):
        read_csv(path, schema)


@pytest.mark.parametrize("literal", INVALID_INT_LITERALS)
def test_inference_demotes_non_canonical_ints_to_str(tmp_path, literal):
    path = tmp_path / "strict.csv"
    path.write_text(f"pid,Age\n1,30\n2,{literal}\n", encoding="utf-8")
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


READERS = [read_csv, read_csv_store, read_csv_infer, infer_csv_schema]


def _read(reader, path, schema, **kwargs):
    """Call any of the four readers; the typed ones get ``schema``."""
    if reader in (read_csv, read_csv_store):
        return reader(path, schema, **kwargs)
    return reader(path, **kwargs)


@pytest.mark.parametrize("reader", READERS)
def test_block_rows_below_one_rejected(tmp_path, relation, reader):
    """A block of 0 rows read nothing and typed every column STR."""
    path = tmp_path / "persons.csv"
    write_csv(relation, path)
    for block_rows in (0, -1):
        with pytest.raises(SchemaError, match="block_rows must be >= 1"):
            _read(reader, path, relation.schema, block_rows=block_rows)


@pytest.mark.parametrize("reader", READERS)
def test_non_utf8_byte_cites_its_physical_line(tmp_path, reader):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b'name,n\r\n"x\r\ny",1\r\nab,2\r\ncaf\xe9,3\r\n')
    schema = Schema([ColumnSpec("name", Dtype.STR), ColumnSpec("n", Dtype.INT)])
    for block_rows in (1, 2, BLOCK_ROWS):
        with pytest.raises(
            SchemaError, match=r"latin1\.csv:5: invalid UTF-8 byte 0xe9"
        ):
            _read(reader, path, schema, block_rows=block_rows)


def test_non_utf8_header_cites_line_one(tmp_path):
    path = tmp_path / "header.csv"
    path.write_bytes(b"a,\xff\n1,2\n")
    with pytest.raises(SchemaError, match=r"header\.csv:1: .* 0xff"):
        read_csv_infer(path)


def test_cli_reports_non_utf8_csv(tmp_path, capsys):
    """An undecodable CSV is an input error (exit 2), not a crash."""
    from repro.cli import main

    (tmp_path / "Orders.csv").write_text("oid\n1\n2\n")
    (tmp_path / "Shops.csv").write_bytes(b"sid,name\n1,\xff\n")
    spec = tmp_path / "spec.toml"
    spec.write_text(
        'name = "shops"\nfact_table = "Orders"\n\n'
        '[[relations]]\nname = "Orders"\nkey = "oid"\ncsv = "Orders.csv"\n\n'
        '[[relations]]\nname = "Shops"\nkey = "sid"\ncsv = "Shops.csv"\n\n'
        '[[edges]]\nchild = "Orders"\ncolumn = "sid"\nparent = "Shops"\n'
    )
    code = main(["solve", "--spec", str(spec), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Shops.csv:2: invalid UTF-8 byte 0xff" in err


def test_utf8_whatever_the_locale(tmp_path):
    """Under the C locale without UTF-8 mode the default encoding is
    ASCII; reading and writing must not depend on it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    source = tmp_path / "cafe.csv"
    source.write_bytes("pid,name\n1,café\n".encode("utf-8"))
    script = (
        "import sys\n"
        "from repro.relational.csvio import read_csv_infer, write_csv\n"
        "relation = read_csv_infer(sys.argv[1])\n"
        "write_csv(relation, sys.argv[2])\n"
        "print(ascii(relation.column('name').tolist()))\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ),
        "PYTHONUTF8": "0",
        "LC_ALL": "C",
        "PYTHONCOERCECLOCALE": "0",
    }
    target = tmp_path / "out.csv"
    done = subprocess.run(
        [sys.executable, "-c", script, str(source), str(target)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ascii(["café"])
    assert target.read_bytes() == "pid,name\r\n1,café\r\n".encode("utf-8")


def test_cells_of_every_width_round_trip(tmp_path):
    """String cells from empty to one far wider than the rest, several
    widths in one block, decode to their text."""
    widths = [0, 1, 7, 8, 9, 16, 17, 33, 255, 256, 257, 1_000, 100_000]
    names = ["é" * (n // 2) + "x" * (n % 2) for n in widths] * 2
    relation = Relation.from_columns(
        {"id": list(range(len(names))), "name": names}, key="id"
    )
    path = tmp_path / "wide.csv"
    write_csv(relation, path)
    for block_rows in (1, 5, BLOCK_ROWS):
        loaded = read_csv_infer(path, key="id", block_rows=block_rows)
        assert loaded.column("name").tolist() == names


def test_cell_over_the_field_limit_fails_as_csv_does(tmp_path):
    import csv

    path = tmp_path / "huge.csv"
    path.write_text("a,b\n1," + "x" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(csv.Error, match="field larger than field limit"):
        read_csv_infer(path)
