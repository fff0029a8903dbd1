"""The one-pass CSV reader against the two-pass reader it replaced.

:mod:`csv_reference` keeps the previous release's readers.  Hypothesis
draws CSV files — canonical ints up to the int64 bounds, every invalid
literal of ``test_csvio``, columns that turn to strings only in a later
block, quoted commas and newlines, empty strings, non-ASCII text,
header-only files, ragged rows — and both readers must agree at every
block size: the same schema and identical relations, or the same
``SchemaError``.

Two differences are intended.  Errors now cite the physical line a
record starts on, where the old reader cited the record number; the two
differ after a quoted field spanning lines, so the old text is compared
with its record number translated.  And a canonical literal outside
int64 made the old reader crash with ``OverflowError``; those draws are
checked against the cell text instead.
"""

from __future__ import annotations

import csv
import io
import re
import tempfile
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import csv_reference as reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_csvio import INVALID_INT_LITERALS

from repro.errors import SchemaError
from repro.relational import csvio
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import ColumnSpec, Schema
from repro.relational.types import Dtype

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
OUT_OF_RANGE = [
    str(INT64_MAX + 1),
    str(INT64_MIN - 1),
    "99999999999999999999",
    "1" + "0" * 40,
]
BLOCK_SIZES = [1, 2, 7, 65_536]

canonical = st.one_of(
    st.integers(-50, 50),
    st.integers(INT64_MIN, INT64_MAX),
    st.sampled_from([INT64_MIN, INT64_MAX, INT64_MIN + 1, INT64_MAX - 1]),
).map(str)
text = st.text(st.sampled_from(list('ab,"\n\r é€-0 ')), max_size=5)
mixed = st.one_of(canonical, st.sampled_from(INVALID_INT_LITERALS), text)


@st.composite
def column(draw, rows: int) -> List[str]:
    """One column's cells; most kinds start out as canonical ints."""
    kind = draw(st.sampled_from(["int", "late", "oob", "mixed", "text"]))
    if kind == "text":
        return draw(st.lists(text, min_size=rows, max_size=rows))
    if kind == "mixed":
        return draw(st.lists(mixed, min_size=rows, max_size=rows))
    cells = draw(st.lists(canonical, min_size=rows, max_size=rows))
    if rows and kind != "int":
        # One odd cell, often after the first blocks.
        odd = st.sampled_from(OUT_OF_RANGE) if kind == "oob" else st.one_of(
            st.sampled_from(INVALID_INT_LITERALS), text
        )
        cells[draw(st.integers(0, rows - 1))] = draw(odd)
    return cells


@st.composite
def csv_files(draw) -> Tuple[str, List[int]]:
    """``(text, starts)``: a CSV and the physical line of each record."""
    width = draw(st.integers(1, 3))
    rows = draw(st.integers(0, 12))
    cols = [draw(column(rows)) for _ in range(width)]
    records = [[f"c{i}" for i in range(width)]] + [
        [col[r] for col in cols] for r in range(rows)
    ]
    if rows and draw(st.booleans()) and draw(st.booleans()):
        ragged = records[draw(st.integers(1, rows))]
        if draw(st.booleans()) or len(ragged) == 1:
            ragged.append("x")
        else:
            ragged.pop()
    buffer = io.StringIO(newline="")
    # The default "\r\n" terminator makes the writer quote every field
    # holding "\r" or "\n", so records and rows stay one to one.
    writer = csv.writer(buffer)
    offsets = []
    for record in records:
        offsets.append(buffer.tell())
        writer.writerow(record)
    data = buffer.getvalue()
    # Physical lines as the reader's file iterator counts them.
    starts = [1 + len(re.findall(r"\r\n|\r|\n", data[:o])) for o in offsets]
    return data, starts


def _outcome(read: Callable[[], object]) -> Tuple[object, Optional[str]]:
    try:
        return read(), None
    except SchemaError as exc:
        return None, str(exc)


def _physical(message: str, path: Path, starts: List[int]) -> str:
    """An old error text with its record number made a physical line."""
    prefix = f"{path}:"
    if not message.startswith(prefix):
        return message
    record, rest = message[len(prefix) :].split(":", 1)
    return f"{prefix}{starts[int(record) - 1]}:{rest}"


def _identical(a: Relation, b: Relation) -> bool:
    left, right = Database(), Database()
    left.add_relation("r", a)
    right.add_relation("r", b)
    return left.identical_to(right)


def _cell_text(path: Path, width: int) -> Relation:
    """The file read with every column a string."""
    schema = Schema([ColumnSpec(f"c{i}", Dtype.STR) for i in range(width)])
    return reference.read_csv(path, schema)


def _check_against_text(path: Path, relation: Relation) -> None:
    """Columns typed INT hold int64 values of canonical literals; STR
    columns hold the cell text, and any column with an out-of-range
    literal is STR."""
    cells = _cell_text(path, len(relation.schema))
    for name in relation.schema.names:
        raw = cells.column(name).tolist()
        if relation.schema.dtype(name) is Dtype.INT:
            assert [str(v) for v in relation.column(name).tolist()] == raw
        else:
            assert relation.column(name).tolist() == raw
            assert not raw or any(
                not reference._is_canonical_int(v)
                or not INT64_MIN <= int(v) <= INT64_MAX
                for v in raw
            )


@settings(max_examples=250, deadline=None)
@given(csv_files(), st.sampled_from(BLOCK_SIZES))
def test_inferred_read_matches_two_pass_reader(drawn, block_rows):
    data, starts = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        with path.open("w", newline="") as handle:
            handle.write(data)
        schema, schema_error = _outcome(
            lambda: csvio.infer_csv_schema(path, block_rows=block_rows)
        )
        relation, read_error = _outcome(
            lambda: csvio.read_csv_infer(path, block_rows=block_rows)
        )
        try:
            want_schema, want_schema_error = _outcome(
                lambda: reference.infer_csv_schema(
                    path, block_rows=block_rows
                )
            )
            want, want_error = _outcome(
                lambda: reference.read_csv_infer(path, block_rows=block_rows)
            )
        except OverflowError:
            # The old reader typed an out-of-range column INT, then
            # crashed parsing it.
            assert read_error is None and schema_error is None
            assert schema == relation.schema
            _check_against_text(path, relation)
            return
        if want_error is not None:
            assert read_error == _physical(want_error, path, starts)
            assert schema_error == _physical(
                want_schema_error, path, starts
            )
            return
        assert read_error is None and schema_error is None
        assert schema == want_schema == relation.schema
        assert _identical(relation, want)
        _check_against_text(path, relation)


@settings(max_examples=150, deadline=None)
@given(csv_files(), st.sampled_from(BLOCK_SIZES))
def test_typed_int_read_matches_old_reader(drawn, block_rows):
    """Every column read as INT: the same values or the same error, and
    the spilling reader agrees with the in-RAM one."""
    data, starts = drawn
    width = len(next(csv.reader(io.StringIO(data, newline=""))))
    schema = Schema([ColumnSpec(f"c{i}", Dtype.INT) for i in range(width)])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        with path.open("w", newline="") as handle:
            handle.write(data)
        got, error = _outcome(
            lambda: csvio.read_csv(path, schema, block_rows=block_rows)
        )
        spilled, spill_error = _outcome(
            lambda: csvio.read_csv_store(
                path,
                schema,
                chunk_rows=3,
                directory=Path(tmp) / "store",
                block_rows=block_rows,
            )
        )
        assert spill_error == error
        try:
            want, want_error = _outcome(
                lambda: reference.read_csv(
                    path, schema, block_rows=block_rows
                )
            )
        except OverflowError:
            assert error is not None
            assert "expects an integer in the int64 range, got '" in error
            return
        if want_error is not None:
            assert error == _physical(want_error, path, starts)
            return
        assert error is None
        assert _identical(got, want)
        assert _identical(spilled, want)


def test_header_only_file_is_all_strings(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("a,b\n")
    for block_rows in BLOCK_SIZES:
        relation = csvio.read_csv_infer(path, key="a", block_rows=block_rows)
        want = reference.read_csv_infer(path, key="a", block_rows=block_rows)
        assert relation.schema == want.schema
        assert relation.schema.dtype("b") is Dtype.STR
        assert _identical(relation, want)


@pytest.mark.parametrize("block_rows", BLOCK_SIZES)
def test_late_string_demotes_earlier_int_blocks(tmp_path, block_rows):
    path = tmp_path / "late.csv"
    lines = [f"{i},{-i}\n" for i in range(9)]
    path.write_text("a,b\n" + "".join(lines) + "x,0\n")
    relation = csvio.read_csv_infer(path, block_rows=block_rows)
    assert relation.schema.dtype("a") is Dtype.STR
    assert relation.schema.dtype("b") is Dtype.INT
    assert relation.column("a").tolist() == [str(i) for i in range(9)] + ["x"]
    assert _identical(relation, reference.read_csv_infer(path))
    assert np.array_equal(relation.column("b"), [-i for i in range(9)] + [0])
