"""The CSV readers against the two-pass reader of an earlier release.

:mod:`csv_reference` keeps that release's readers.  Hypothesis draws
CSV files two ways.  ``csv_files`` writes them with ``csv.writer``:
canonical ints up to the int64 bounds, every invalid literal of
``test_csvio``, columns that turn to strings only in a later block,
quoted commas and newlines, empty strings, non-ASCII text, header-only
files, ragged rows.  ``raw_files`` assembles bytes ``csv.writer`` never
writes: LF, CRLF and mixed line endings, a bare ``\\r``, no final
newline, empty lines, a quote mid-field, NUL bytes, non-ASCII and
non-UTF-8 bytes, ragged records, and 18-, 19- and 20-digit cells around
both int64 bounds.  The byte decoder and its ``csv.reader`` fallback
must together agree with the old reader at every block size: the same
schema and identical relations, or the same ``SchemaError``.

Two differences are intended.  Errors now cite the physical line a
record starts on, where the old reader cited the record number; the two
differ after a quoted field that spans lines, so the old text is
compared with its record number translated.  ``csv_files`` knows the
line ``csv.writer`` started each record on; ``raw_files`` draws are
translated by ``_record_lines``, a model of the quote rules that is
checked on files whose lines were counted by hand.  And the old reader
crashed on two kinds of input: a canonical literal outside int64 made
it raise ``OverflowError``, and bytes that are not UTF-8 made it raise
``UnicodeDecodeError``.  Inferred reads of the first kind are checked
against the cell text instead, and typed reads must name the first cell
that is not a canonical int64 literal; draws of the second kind must
raise a ``SchemaError`` citing the physical line of the first bad byte.
(A ``SchemaError`` the old reader raised before it met the bad byte
must still come first.)
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
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_csvio import INVALID_INT_LITERALS

from repro.datagen.retail import RetailConfig, generate_retail
from repro.datagen.scales import generate_scaled
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
def csv_files(draw) -> Tuple[bytes, List[int]]:
    """``(data, starts)``: a CSV as ``csv.writer`` writes it, encoded as
    UTF-8, and the physical line each record starts on."""
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
    text = buffer.getvalue()
    # Physical lines as the reader's file iterator counts them.
    starts = [1 + len(re.findall(r"\r\n|\r|\n", text[:o])) for o in offsets]
    return text.encode("utf-8"), starts


#: Integer literals of 18, 19 and 20 digits around both int64 bounds.
LONG_INTS = [
    str(value)
    for value in (
        10**17,
        10**18 - 1,
        -(10**18 - 1),
        10**18,
        INT64_MAX - 1,
        INT64_MAX,
        INT64_MAX + 1,
        INT64_MIN + 1,
        INT64_MIN,
        INT64_MIN - 1,
        10**19 - 1,
        -(10**19 - 1),
        10**19,
        2**64 - 1,
        2**64,
        -(2**64),
    )
] + ["0" + str(INT64_MAX)[1:], "-0" + str(INT64_MAX)[2:]]
#: Bytes ``csv.writer`` never writes inside an unquoted field, and the
#: two bytes either side of the ASCII digits.
RAW_PIECES = [
    b"a",
    b"7",
    b"/",
    b":",
    b"-",
    b" ",
    b",",
    b'"',
    b"\r",
    b"\x00",
    "é".encode(),
    b"\xff",
    b"\xc3",
]
int_cell = st.one_of(canonical, st.sampled_from(LONG_INTS)).map(str.encode)
text_cell = st.text(st.sampled_from(list("ab é€-0 ")), max_size=5).map(
    str.encode
)
invalid_cell = st.sampled_from(INVALID_INT_LITERALS).map(str.encode)
#: Integer literals, some out of range, mixed with invalid ones: the
#: old reader's OverflowError path.
odd_int_cell = st.one_of(int_cell, invalid_cell)
raw_cell = st.one_of(
    int_cell,
    text_cell,
    invalid_cell,
    st.lists(st.sampled_from(RAW_PIECES), max_size=4).map(b"".join),
    st.sampled_from(
        [b'ab"c', b"a\x00b", b"x\ry", b"caf\xe9", b"1:", b"/5"]
    ),
)
#: A file's line endings: LF, CRLF, both, or both and a bare CR.
line_ends = st.sampled_from(
    [[b"\n"], [b"\r\n"], [b"\n", b"\r\n"], [b"\n", b"\r\n", b"\r"]]
)


@st.composite
def raw_files(draw) -> bytes:
    """A CSV assembled from bytes, most of it regular: int columns,
    text columns and columns with odd cells, each record with its own
    line ending, now and then an empty line, a ragged record or no
    final newline."""
    width = draw(st.integers(1, 3))
    rows = draw(st.integers(0, 12))
    kinds = [
        draw(
            st.sampled_from(
                [int_cell, int_cell, text_cell, raw_cell, odd_int_cell]
            )
        )
        for _ in range(width)
    ]
    cols = [
        draw(st.lists(kind, min_size=rows, max_size=rows)) for kind in kinds
    ]
    lines = [b",".join(f"c{i}".encode() for i in range(width))] + [
        b",".join(col[r] for col in cols) for r in range(rows)
    ]
    if rows and draw(st.booleans()) and draw(st.booleans()):
        r = draw(st.integers(1, rows))
        if width > 1 and draw(st.booleans()):
            lines[r] = lines[r].rsplit(b",", 1)[0]
        else:
            lines[r] += b",x"
    if draw(st.integers(0, 5)) == 0:
        lines.insert(draw(st.integers(1, len(lines))), b"")
    line_end = st.sampled_from(draw(line_ends))
    ends = [draw(line_end) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = b""
    return b"".join(line + end for line, end in zip(lines, ends))


def _outcome(read: Callable[[], object]) -> Tuple[object, Optional[str]]:
    try:
        return read(), None
    except SchemaError as exc:
        return None, str(exc)


def _record_lines(data: bytes) -> List[int]:
    """The physical line each record of ``data`` starts on.

    Lines end at ``\\r\\n``, ``\\r`` or ``\\n``, and a byte that is not
    UTF-8 moves no line end.  A line starts a record unless it begins
    inside a quoted field: a ``"`` opens one at the start of a field, a
    doubled ``""`` inside it is a literal quote, and any other ``"``
    closes it.
    """
    text = data.decode("utf-8", "replace")
    starts, quoted = [], False
    lines = re.findall(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+$", text)
    for number, line in enumerate(lines, start=1):
        if not quoted:
            starts.append(number)
        state = "quoted" if quoted else "start"
        for char in line.rstrip("\r\n"):
            if state == "quoted":
                state = "closing" if char == '"' else "quoted"
            elif char == ",":
                state = "start"
            elif char == '"' and state in ("start", "closing"):
                state = "quoted"
            else:
                state = "field"
        quoted = state == "quoted"
    return starts


def _physical(message: str, path: Path, starts: List[int]) -> str:
    """An old error text with its record number made a physical line."""
    prefix = f"{path}:"
    if not message.startswith(prefix):
        return message
    record, rest = message[len(prefix) :].split(":", 1)
    return f"{prefix}{starts[int(record) - 1]}:{rest}"


def _undecodable(path: Path, data: bytes) -> Optional[str]:
    """The error a file that is not UTF-8 raises where the old reader
    crashed, else ``None``.  A sequence cut short by the end of the
    file fails only once the file is read to its end, so other errors
    may come first."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode("utf-8")
        line = 1 + len(re.findall(r"\r\n|\r|\n", head))
        return f"{path}:{line}: invalid UTF-8 byte 0x{data[exc.start]:02x}"
    return None


def _first_bad_int(path: Path, width: int, block_rows: int) -> str:
    """The old reader's error text, record number included, for the
    first cell that is not a canonical int64 literal: blocks in order,
    columns in order within a block, cells in order within a column."""
    handle, reader, _ = reference._open_reader(path)
    with handle:
        for first, rows in reference._iter_blocks(
            path, reader, width, block_rows
        ):
            for i in range(width):
                for offset, row in enumerate(rows):
                    value = row[i]
                    if not reference._is_canonical_int(value):
                        expected = "an integer"
                    elif not INT64_MIN <= int(value) <= INT64_MAX:
                        expected = "an integer in the int64 range"
                    else:
                        continue
                    return (
                        f"{path}:{first + offset}: column 'c{i}' "
                        f"expects {expected}, got {value!r}"
                    )
    raise AssertionError("no cell is out of the int64 range")


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


def _check_inferred(data: bytes, starts: List[int], block_rows: int) -> None:
    """Inference and the inferred read agree with the old reader."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(data)
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
        except UnicodeDecodeError:
            assert read_error == schema_error == _undecodable(path, data)
            return
        except OverflowError:
            # The old reader typed an out-of-range column INT, then
            # crashed parsing it.
            assert read_error is None and schema_error is None
            assert schema == relation.schema
            _check_against_text(path, relation)
            return
        if want_error is not None:
            assert read_error == _physical(want_error, path, starts)
            assert schema_error == _physical(want_schema_error, path, starts)
            return
        assert read_error is None and schema_error is None
        assert schema == want_schema == relation.schema
        assert _identical(relation, want)
        _check_against_text(path, relation)


def _check_typed(data: bytes, starts: List[int], block_rows: int) -> None:
    """Every column read as INT: the same values or the same error, and
    the spilling reader agrees with the in-RAM one."""
    width = data.split(b"\n", 1)[0].split(b"\r", 1)[0].count(b",") + 1
    schema = Schema([ColumnSpec(f"c{i}", Dtype.INT) for i in range(width)])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(data)
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
        except UnicodeDecodeError:
            assert error == _undecodable(path, data)
            return
        except OverflowError:
            # The old reader met an out-of-range literal before it
            # checked the rest of that column's block.
            want_error = _first_bad_int(path, width, block_rows)
            assert error == _physical(want_error, path, starts)
            return
        if want_error is not None:
            assert error == _physical(want_error, path, starts)
            return
        assert error is None
        assert _identical(got, want)
        assert _identical(spilled, want)


#: The int64 minimum alone in a block of one CRLF-ended record: 19
#: digits behind a sign, where a decoder that gives up on long cells
#: would type the column STR.
INT64_MIN_BLOCK = b"c0\r\n-9223372036854775808\r\n"
#: A block whose first bad cell is out of range and whose second is not
#: canonical: the old reader crashed, and the error names the first.
OUT_OF_RANGE_FIRST = b"c0,c1\n1,2\n3,9223372036854775808\n4,+7\n"


@settings(max_examples=250, deadline=None)
@given(csv_files(), st.sampled_from(BLOCK_SIZES))
def test_inferred_read_matches_two_pass_reader(drawn, block_rows):
    _check_inferred(*drawn, block_rows)


@settings(max_examples=150, deadline=None)
@given(csv_files(), st.sampled_from(BLOCK_SIZES))
def test_typed_int_read_matches_old_reader(drawn, block_rows):
    _check_typed(*drawn, block_rows)


@settings(max_examples=250, deadline=None)
@given(raw_files(), st.sampled_from(BLOCK_SIZES))
@example(INT64_MIN_BLOCK, 1)
def test_inferred_read_of_raw_bytes_matches_two_pass_reader(data, block_rows):
    _check_inferred(data, _record_lines(data), block_rows)


@settings(max_examples=150, deadline=None)
@given(raw_files(), st.sampled_from(BLOCK_SIZES))
@example(INT64_MIN_BLOCK, 1)
@example(OUT_OF_RANGE_FIRST, 65_536)
def test_typed_int_read_of_raw_bytes_matches_old_reader(data, block_rows):
    _check_typed(data, _record_lines(data), block_rows)


#: ``(data, starts, error)``: files whose records and physical lines
#: differ, the line each record starts on and the error the file
#: raises, both counted by hand.
HAND_COUNTED = [
    pytest.param(
        b'c0,c1\r\n"a\r\nb",1\r\nx\r\n',
        [1, 2, 4],
        "4: expected 2 fields, got 1",
        id="crlf-in-quotes",
    ),
    pytest.param(
        b'c0,c1\n"a""\n""b",1\nq\n',
        [1, 2, 4],
        "4: expected 2 fields, got 1",
        id="doubled-quote-then-lf-in-quotes",
    ),
    pytest.param(
        b'c0,c1\n"a\n\nb",1\n\n2,3\n',
        [1, 2, 5, 6],
        "5: expected 2 fields, got 0",
        id="empty-line-in-and-out-of-quotes",
    ),
    pytest.param(
        b'c0,c1\n"x\ry",1\n1,2\r3\n',
        [1, 2, 4, 5],
        "5: expected 2 fields, got 1",
        id="bare-cr-in-and-out-of-quotes",
    ),
    pytest.param(
        b'c0,c1\n"a\rb",1\nz,+2\n',
        [1, 2, 4],
        "4: column 'c1' expects an integer, got '+2'",
        id="bad-int-after-bare-cr-in-quotes",
    ),
]


@pytest.mark.parametrize("data, starts, error", HAND_COUNTED)
@pytest.mark.parametrize("block_rows", BLOCK_SIZES)
def test_errors_cite_hand_counted_lines(
    tmp_path, data, starts, error, block_rows
):
    """The oracle's record-to-line translation, and every reader, on
    files whose lines were counted by hand."""
    assert _record_lines(data) == starts
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    schema = Schema([ColumnSpec("c0", Dtype.STR), ColumnSpec("c1", Dtype.INT)])
    reads = [
        lambda: csvio.read_csv(path, schema, block_rows=block_rows),
        lambda: csvio.read_csv_store(
            path, schema, directory=tmp_path / "s", block_rows=block_rows
        ),
    ]
    if "fields" in error:
        reads += [
            lambda: csvio.read_csv_infer(path, block_rows=block_rows),
            lambda: csvio.infer_csv_schema(path, block_rows=block_rows),
        ]
    for read in reads:
        assert _outcome(read) == (None, f"{path}:{error}")


@pytest.mark.parametrize("block_rows", BLOCK_SIZES)
def test_int64_min_in_a_crlf_block_is_int(tmp_path, block_rows):
    path = tmp_path / "min.csv"
    path.write_bytes(INT64_MIN_BLOCK)
    relation = csvio.read_csv_infer(path, block_rows=block_rows)
    assert relation.schema.dtype("c0") is Dtype.INT
    assert relation.column("c0").tolist() == [INT64_MIN]
    schema = csvio.infer_csv_schema(path, block_rows=block_rows)
    assert schema == relation.schema
    typed = csvio.read_csv(path, schema, block_rows=block_rows)
    assert typed.column("c0").tolist() == [INT64_MIN]


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


def _workload_shapes() -> List[Tuple[str, Relation]]:
    """Relations shaped like the benchmark workloads' CSVs: CRLF
    endings (``write_csv``), int and string columns, and census's
    19-character ``Rel`` value ``Son/Daughter in-law``."""
    census = generate_scaled(1, seed=1)
    retail = generate_retail(
        RetailConfig(
            n_orders=600, n_customers=30, n_products=12, n_suppliers=5
        )
    ).database
    shapes = [
        ("persons", census.persons_masked),
        ("housing", census.housing),
    ] + [(name, retail.relation(name)) for name in retail.relation_names]
    assert "Son/Daughter in-law" in shapes[0][1].column("Rel").tolist()
    return shapes


@pytest.mark.parametrize("block_rows", [7, csvio.BLOCK_ROWS])
def test_workload_shapes_never_fall_back(tmp_path, monkeypatch, block_rows):
    """Every reader decodes the workloads' files itself, at one block
    and at many, without handing a block to ``csv.reader``."""
    shapes = _workload_shapes()

    def refuse(self, offset):
        raise AssertionError(f"{self.path} fell back at byte {offset}")

    monkeypatch.setattr(csvio._CsvFile, "_fall_back", refuse)
    for name, relation in shapes:
        path = tmp_path / f"{name}.csv"
        csvio.write_csv(relation, path)
        assert b"\r\n" in path.read_bytes()
        key = relation.schema.key
        inferred = csvio.read_csv_infer(path, key=key, block_rows=block_rows)
        assert inferred.schema == relation.schema
        assert _identical(inferred, relation)
        schema = csvio.infer_csv_schema(path, key=key, block_rows=block_rows)
        assert schema == relation.schema
        typed = csvio.read_csv(path, schema, block_rows=block_rows)
        assert _identical(typed, relation)
        spilled = csvio.read_csv_store(
            path,
            schema,
            directory=tmp_path / f"{name}-{block_rows}",
            block_rows=block_rows,
        )
        assert _identical(spilled, relation)


@pytest.mark.parametrize("read_bytes", [1, 7, 64])
@pytest.mark.parametrize("block_rows", BLOCK_SIZES)
def test_blocks_across_binary_reads(
    tmp_path, monkeypatch, read_bytes, block_rows
):
    """Records cut across binary reads, a last record without a newline,
    and a fall back to a block that began several reads earlier read as
    the old reader reads them."""
    data = (
        b"c0,c1\r\n"
        + b"".join(b"%d,name%d\r\n" % (i, i % 3) for i in range(40))
        + b'40,"quoted, cell"\n41,x\n42,y'
    )
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    want = reference.read_csv_infer(path)
    typed = Schema([ColumnSpec("c0", Dtype.INT), ColumnSpec("c1", Dtype.STR)])
    # Only the block holding the quoted record 42 goes to csv.reader.
    line_starts = [0] + [i + 1 for i, byte in enumerate(data) if byte == 10]
    first = 2 + (42 - 2) // block_rows * block_rows
    fall_back, offsets = csvio._CsvFile._fall_back, []

    def spy(self, offset):
        offsets.append(offset)
        return fall_back(self, offset)

    monkeypatch.setattr(csvio._CsvFile, "_fall_back", spy)
    monkeypatch.setattr(csvio, "_READ_BYTES", read_bytes)
    assert _identical(csvio.read_csv_infer(path, block_rows=block_rows), want)
    assert offsets == [line_starts[first - 1]]
    assert csvio.infer_csv_schema(path, block_rows=block_rows) == want.schema
    assert _identical(
        csvio.read_csv(path, typed, block_rows=block_rows),
        reference.read_csv(path, typed),
    )
