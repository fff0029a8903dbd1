"""CSV import/export for relations.

Integer columns must be canonical base-10 literals (optional leading
``-``, no underscores, whitespace or redundant leading zeros) that fit
``int64``, so that a read→write round-trip preserves the cell text;
everything else is kept as a string.  The writer emits a plain header
row followed by the data — enough to round-trip any relation the
library produces.  Files are UTF-8 whatever the locale: bytes that are
not UTF-8 raise :class:`SchemaError` citing the physical line of the
first bad byte.

Readers stream the file in blocks of at most ``block_rows`` records
(``block_rows`` must be >= 1): the whole table is never held as a
list-of-rows plus a transposed copy.  ``read_csv`` still returns an
in-RAM relation (the arrays are the destination), but
``read_csv_store`` spills each block straight into a chunked on-disk
column store, keeping peak memory proportional to the block size.
``read_csv_infer`` infers the column types while it reads, in the same
single pass.

A block is decoded from its bytes by numpy, with no per-row Python
objects.  The file is read in binary and cut after ``\\n`` record ends;
one ``flatnonzero`` over ``,`` and ``\\n`` gives every cell's start and
end offset, and the ``\\r`` of a ``\\r\\n`` ending is dropped.  Integer
cells are checked and summed digit position by digit position; string
cells are read as 8-byte words, deduplicated with ``np.unique`` and only
the distinct values are decoded.  The decoder reads a block only when
it can prove ``csv.reader`` would read it the same way.  From the first
block holding a ``"``, a ``\\r`` not followed by ``\\n``, a NUL byte, an
empty line, a ragged record, a cell longer than
``csv.field_size_limit()``, bytes that are not UTF-8 or — in a typed
read — an integer cell that is not a canonical int64 literal, the rest
of the file is read by ``csv.reader``, which raises every error.
Errors cite ``path:line`` with the physical line the offending record
starts on, which a quoted multi-line field makes differ from the record
number.  Both paths yield ``str`` only, so the relations skip the
STR-column type scan.
"""

from __future__ import annotations

import csv
import io
import itertools
import operator
import re
from pathlib import Path
from types import TracebackType
from typing import (
    BinaryIO,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

import numpy as np

from repro.errors import SchemaError
from repro.relational.relation import Relation
from repro.relational.schema import ColumnSpec, Schema
from repro.relational.store import (
    DEFAULT_CHUNK_ROWS,
    MmapStoreWriter,
    NumpyColumnStore,
)
from repro.relational.types import Dtype

__all__ = [
    "write_csv",
    "read_csv",
    "read_csv_infer",
    "read_csv_store",
    "infer_csv_schema",
]

#: Rows per streaming block — small enough to bound memory, large enough
#: to amortise the per-block numpy conversions.
BLOCK_ROWS = 65_536

#: Bytes per binary read; a block spanning more reads doubles the size.
_READ_BYTES = 1 << 20

_COMMA, _LF, _CR, _MINUS, _ZERO = b",\n\r-0"

#: Digits of the widest int64 literal.  ``10**19 - 1 < 2**64``, so a
#: ``uint64`` sum over 19 digit positions is exact.
_INT64_DIGITS = 19

#: ``_WORD_MASKS[r]`` keeps the first ``r`` bytes of a little-endian
#: 8-byte word.
_WORD_MASKS = np.array([(1 << (8 * r)) - 1 for r in range(9)], dtype=np.uint64)

#: A character ``surrogateescape`` decodes an undecodable byte to.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def write_csv(relation: Relation, path: Union[str, Path]) -> None:
    """Write a relation to ``path`` as UTF-8 with a header row.

    Chunked relations are exported one chunk at a time; nothing beyond a
    chunk of each column is materialised.
    """
    path = Path(path)
    names = relation.schema.names
    store = relation.store
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for start, stop in store.chunk_bounds():
            writer.writerows(
                zip(*(store.column_slice(name, start, stop) for name in names))
            )


def _is_canonical_int(text: str) -> bool:
    """Whether ``text`` is exactly ``str(int(text))``.

    Bare :func:`int` also accepts ``"1_000"``, ``" 3 "``, ``"+7"``,
    ``"00"`` and non-ASCII digits — all of which would be silently
    rewritten on the next export, so they are rejected here.  This is
    the definition :func:`_int_block` and :func:`_parse_ints` check a
    block at a time, and the test the error path uses to find the
    offending cell.
    """
    body = text[1:] if text.startswith("-") else text
    if not body or not (body.isascii() and body.isdigit()):
        return False
    if len(body) > 1 and body[0] == "0":
        return False
    return not (text.startswith("-") and body == "0")


def _int_block(values: Sequence[str]) -> Optional[np.ndarray]:
    """``values`` as ``int64`` if every one is a canonical int64 literal.

    ``None`` otherwise.  Both checks are whole-list builtins with no
    per-cell list: ``np.fromiter(map(int, …))`` parses and range-checks,
    then a lazy ``str(int(v)) == v`` sweep checks canonicality, which is
    :func:`_is_canonical_int` for any ``v`` that :func:`int` accepts.
    """
    try:
        parsed = np.fromiter(
            map(int, values), dtype=np.int64, count=len(values)
        )
    except (ValueError, OverflowError):
        return None
    if all(map(operator.eq, map(str, map(int, values)), values)):
        return parsed
    return None


def _bad_int(
    path: Path,
    name: str,
    values: Sequence[str],
    first_record: int,
) -> SchemaError:
    """The error for the first cell of an integer column's block that is
    not a canonical int64 literal."""
    for offset, value in enumerate(values):
        if not _is_canonical_int(value):
            expected = "an integer"
        elif _int_block([value]) is None:
            expected = "an integer in the int64 range"
        else:
            continue
        line = _line_of(path, first_record + offset)
        return SchemaError(
            f"{path}:{line}: column {name!r} expects {expected}, "
            f"got {value!r}"
        )
    raise AssertionError("unreachable")  # pragma: no cover


def _line_of(path: Path, record: int) -> int:
    """The physical line CSV record ``record`` starts on.

    Records count from 1 at the header.  A quoted field may span
    lines, so the line is found by re-reading the file up to the
    record.  Only the error paths call this: a read that succeeds never
    counts lines.  Undecodable bytes cannot move a line end, so they
    are replaced rather than raised here.
    """
    with path.open(encoding="utf-8", errors="replace", newline="") as handle:
        reader = csv.reader(handle)
        for _ in itertools.islice(reader, record - 1):
            pass
        return reader.line_num + 1


def _encoding_error(path: Path) -> SchemaError:
    """The error for a file that is not UTF-8, citing the physical line
    of its first bad byte, as ``csv.reader`` counts lines."""
    with path.open(
        encoding="utf-8", errors="surrogateescape", newline=""
    ) as handle:
        for line, text in enumerate(handle, start=1):
            found = _ESCAPED_BYTE.search(text)
            if found is not None:
                byte = ord(found.group()) - 0xDC00
                return SchemaError(
                    f"{path}:{line}: invalid UTF-8 byte 0x{byte:02x}"
                )
    raise AssertionError("unreachable")  # pragma: no cover


def _iter_blocks(
    path: Path,
    reader: Iterator[List[str]],
    width: int,
    block_rows: int,
    record: int,
) -> Iterator[Tuple[int, List[List[str]]]]:
    """Yield ``(first_record, rows)`` blocks, validating field counts.

    ``record`` is the number of the reader's next record, counting from
    1 at the header.
    """
    while True:
        rows = list(itertools.islice(reader, block_rows))
        if not rows:
            return
        if set(map(len, rows)) != {width}:
            for offset, raw in enumerate(rows):
                if len(raw) != width:
                    line = _line_of(path, record + offset)
                    raise SchemaError(
                        f"{path}:{line}: expected {width} fields, "
                        f"got {len(raw)}"
                    )
        yield record, rows
        record += len(rows)


def _parse_ints(
    buf: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> Optional[np.ndarray]:
    """The cells ``buf[starts:ends]`` as ``int64``, or ``None`` unless
    every one is a canonical int64 literal.

    :func:`_is_canonical_int` on bytes: an optional ``-``, 1 to 19 ASCII
    digits, no leading zero and no ``-0``.  A Horner sum runs over
    right-aligned digit positions in ``uint64``, a cell's missing
    leading positions counting as zeros; it is exact at 19 digits and
    range-checked before the sign is applied.
    """
    negative = buf[starts] == _MINUS
    first = starts + negative
    digits = ends - first
    shortest, longest = int(digits.min()), int(digits.max())
    if shortest < 1 or longest > _INT64_DIGITS:
        return None
    if np.any((buf[first] == _ZERO) & ((digits > 1) | negative)):
        return None
    magnitude = np.zeros(len(starts), dtype=np.uint64)
    digit = np.empty(len(starts), dtype=np.uint8)
    # Each cell's byte ``place`` positions before its last.
    index = ends - longest
    for place in range(longest - 1, -1, -1):
        np.take(buf, index, out=digit, mode="clip")
        # uint8 wraps below "0", so every non-digit byte reads as > 9.
        digit -= np.uint8(_ZERO)
        if place >= shortest:
            digit[digits <= place] = 0
        if digit.max() > 9:
            return None
        magnitude *= np.uint64(10)
        magnitude += digit
        index += 1
    if longest == _INT64_DIGITS:
        limit = np.where(negative, np.uint64(2**63), np.uint64(2**63 - 1))
        if np.any(magnitude > limit):
            return None
    values = magnitude.view(np.int64)
    np.negative(values, out=values, where=negative)
    return values


def _strings(
    buf: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """The cells ``buf[starts:ends]`` as an object array of ``str``.

    Each cell is read as 8-byte words, zeroed past its end, which
    ``buf``'s 8 trailing pad bytes keep in bounds.  Cells are grouped
    by word count rounded up to a power of two, so a wide cell widens
    only its own group and a group's words take at most about twice its
    bytes.  ``np.unique`` over a group's fixed-width ``S`` view finds
    its distinct values (the block holds no NUL byte, so stripping the
    zero padding is exact), sorted by bytes, which for UTF-8 is
    code-point order; each is decoded once and gathered back.
    """
    words = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
    lengths = ends - starts
    groups = np.frexp(np.maximum((lengths + 7) // 8, 1) - 1)[1]
    out = np.empty(len(starts), dtype=object)
    low, high = int(groups.min()), int(groups.max())
    for group in range(low, high + 1):
        members: Union[slice, np.ndarray] = slice(None)
        if low < high:
            members = np.flatnonzero(groups == group)
            if not len(members):
                continue
        first, length = starts[members], lengths[members]
        offsets = np.arange(0, 8 * max((int(length.max()) + 7) // 8, 1), 8)
        matrix = words.take(first[:, None] + offsets, mode="clip")
        matrix &= _WORD_MASKS.take(np.clip(length[:, None] - offsets, 0, 8))
        values, codes = np.unique(
            matrix.view(f"S{8 * len(offsets)}").reshape(-1),
            return_inverse=True,
        )
        decoded = np.empty(len(values), dtype=object)
        decoded[:] = [value.decode("utf-8") for value in values.tolist()]
        if low == high:
            return decoded[codes]
        out[members] = decoded[codes]
    return out


class _Cells:
    """A block the decoder proved regular: every cell's byte offsets.

    ``starts`` and ``ends`` are ``(rows, width)``; ``buf`` is the
    block's bytes plus 8 NUL pad bytes.
    """

    def __init__(
        self, buf: np.ndarray, starts: np.ndarray, ends: np.ndarray
    ) -> None:
        self._buf = buf
        self._starts = starts
        self._ends = ends
        self._ints: Dict[int, Optional[np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self._starts)

    def ints(self, i: int) -> Optional[np.ndarray]:
        """Column ``i`` as ``int64``, or ``None`` unless every cell is a
        canonical int64 literal (computed once)."""
        if i not in self._ints:
            self._ints[i] = _parse_ints(
                self._buf, self._starts[:, i], self._ends[:, i]
            )
        return self._ints[i]

    def text(self, i: int) -> np.ndarray:
        return _strings(self._buf, self._starts[:, i], self._ends[:, i])

    def row(self, r: int) -> List[str]:
        data = self._buf.tobytes()
        return [
            data[start:end].decode("utf-8")
            for start, end in zip(
                self._starts[r].tolist(), self._ends[r].tolist()
            )
        ]


class _Rows:
    """A block of records from ``csv.reader``."""

    def __init__(self, rows: List[List[str]]) -> None:
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def ints(self, i: int) -> Optional[np.ndarray]:
        return _int_block(self.values(i))

    def text(self, i: int) -> np.ndarray:
        return np.asarray(self.values(i), dtype=object)

    def values(self, i: int) -> List[str]:
        return [row[i] for row in self._rows]


_Block = Union[_Cells, _Rows]


def _decode(
    data: bytes,
    lines: np.ndarray,
    width: int,
    int_columns: Sequence[int] = (),
) -> Optional[_Cells]:
    """The cells of a block of whole records, or ``None`` when
    ``csv.reader`` might read the block differently or, in a typed read,
    a cell of ``int_columns`` is not a canonical int64 literal.

    ``lines`` holds the offsets of the block's ``\\n`` bytes; only the
    file's last record may lack one.  Every check runs before the block
    is handed on.
    """
    if b'"' in data or b"\0" in data:
        return None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    crlf = np.zeros(len(lines), dtype=bool)
    if b"\r" in data:
        # A "\r" anywhere but before a "\n" is a line end of its own.
        raw = np.frombuffer(data, dtype=np.uint8)
        crlf = raw.take(lines - 1, mode="clip") == _CR
        if np.count_nonzero(raw == _CR) != np.count_nonzero(crlf):
            return None
    if not data.endswith(b"\n"):
        lines = np.append(lines, len(data))
        crlf = np.append(crlf, False)
        data += b"\n"
    buf = np.frombuffer(data + bytes(8), dtype=np.uint8)
    ends = np.flatnonzero((buf == _COMMA) | (buf == _LF))
    if len(ends) != len(lines) * width:
        return None
    ends = ends.reshape(len(lines), width)
    if not np.array_equal(ends[:, -1], lines):
        return None
    starts = np.empty_like(ends)
    starts.reshape(-1)[0] = 0
    starts.reshape(-1)[1:] = ends.reshape(-1)[:-1] + 1
    ends[:, -1] -= crlf
    lengths = ends - starts
    if int(lengths.max()) > csv.field_size_limit():
        return None
    if width == 1 and not lengths.all():
        return None  # an empty line: csv.reader reads no field at all
    cells = _Cells(buf, starts, ends)
    if any(cells.ints(i) is None for i in int_columns):
        return None
    return cells


class _CsvFile:
    """A CSV file open for block reads, and its header.

    Blocks come from the byte decoder while it can prove them regular;
    from the first block it cannot, the rest of the file — that block
    included — is read by ``csv.reader`` through a UTF-8 text wrapper
    seeked to the block's first byte.  Records before it held no quote,
    so ``csv.reader`` starts there at a record boundary.
    """

    def __init__(self, path: Path, block_rows: int) -> None:
        if block_rows < 1:
            raise SchemaError("block_rows must be >= 1")
        self.path = path
        self.block_rows = block_rows
        self._handle: BinaryIO = path.open("rb")
        self._text: Optional[io.TextIOWrapper] = None
        self._reader: Optional[Iterator[List[str]]] = None
        # Bytes read but not yet cut into blocks: ``_data[_pos:]``
        # starts at file offset ``_offset + _pos``, and ``_lines[_next:]``
        # are the offsets of its ``\n`` bytes within ``_data``.
        self._data = b""
        self._offset = 0
        self._pos = 0
        self._lines = np.empty(0, dtype=np.int64)
        self._next = 0
        self._eof = False
        try:
            self.header = self._read_header()
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "_CsvFile":
        return self

    def __exit__(
        self,
        kind: Optional[Type[BaseException]],
        value: Optional[BaseException],
        traceback: Optional[TracebackType],
    ) -> None:
        self.close()

    def close(self) -> None:
        if self._text is not None:
            self._text.close()
        self._handle.close()

    def _take(self, records: int) -> Optional[Tuple[int, bytes, np.ndarray]]:
        """``(offset, data, lines)``: the next at most ``records`` lines
        of the file, at file offset ``offset``, with the offsets of their
        ``\\n`` bytes.  ``None`` at the end of the file."""
        while len(self._lines) - self._next < records and not self._eof:
            chunk = self._handle.read(
                max(_READ_BYTES, len(self._data) - self._pos)
            )
            if not chunk:
                self._eof = True
                break
            rest = self._data[self._pos :]
            found = np.flatnonzero(np.frombuffer(chunk, dtype=np.uint8) == _LF)
            self._lines = np.concatenate(
                (self._lines[self._next :] - self._pos, found + len(rest))
            )
            self._data = rest + chunk
            self._offset += self._pos
            self._pos = self._next = 0
        if len(self._lines) - self._next >= records:
            stop = self._next + records
            end = int(self._lines[stop - 1]) + 1
        else:  # the end of the file; its last line may lack a "\n"
            stop, end = len(self._lines), len(self._data)
        if end == self._pos:
            return None
        taken = (
            self._offset + self._pos,
            self._data[self._pos : end],
            self._lines[self._next : stop] - self._pos,
        )
        self._pos, self._next = end, stop
        return taken

    def _fall_back(self, offset: int) -> Iterator[List[str]]:
        self._handle.seek(offset)
        self._text = io.TextIOWrapper(
            self._handle, encoding="utf-8", newline=""
        )
        self._reader = csv.reader(self._text)
        return self._reader

    def _read_header(self) -> List[str]:
        taken = self._take(1)
        if taken is None:
            raise SchemaError(f"{self.path} is empty")
        _, data, lines = taken
        cells = _decode(data, lines, data.count(b",") + 1)
        if cells is not None:
            return cells.row(0)
        try:
            header = next(self._fall_back(0), None)
        except UnicodeDecodeError:
            raise _encoding_error(self.path) from None
        if header is None:
            raise SchemaError(f"{self.path} is empty")
        return header

    def blocks(
        self, int_columns: Sequence[int] = ()
    ) -> Iterator[Tuple[int, _Block]]:
        """Yield ``(first_record, block)`` for the data records.

        Records count from 1 at the header.  A block whose
        ``int_columns`` are not all canonical int64 literals is read by
        ``csv.reader``, which raises the error.
        """
        width = len(self.header)
        record = 2
        reader = self._reader
        while reader is None:
            taken = self._take(self.block_rows)
            if taken is None:
                return
            offset, data, lines = taken
            cells = _decode(data, lines, width, int_columns)
            if cells is None:
                reader = self._fall_back(offset)
            else:
                yield record, cells
                record += len(cells)
        try:
            for first, rows in _iter_blocks(
                self.path, reader, width, self.block_rows, record
            ):
                yield first, _Rows(rows)
        except UnicodeDecodeError:
            raise _encoding_error(self.path) from None


def _block_columns(
    path: Path,
    schema: Schema,
    block: _Block,
    first_record: int,
) -> Dict[str, np.ndarray]:
    columns: Dict[str, np.ndarray] = {}
    for i, spec in enumerate(schema):
        if spec.dtype is not Dtype.INT:
            columns[spec.name] = block.text(i)
            continue
        parsed = block.ints(i)
        if parsed is None:
            # Decoded blocks get here parsed: one whose int columns do
            # not parse is read again by csv.reader.
            assert isinstance(block, _Rows)
            raise _bad_int(path, spec.name, block.values(i), first_record)
        columns[spec.name] = parsed
    return columns


def _int_positions(schema: Schema) -> List[int]:
    return [i for i, spec in enumerate(schema) if spec.dtype is Dtype.INT]


def _check_header(path: Path, header: List[str], schema: Schema) -> None:
    if tuple(header) != schema.names:
        raise SchemaError(
            f"{path} header {tuple(header)} does not match schema "
            f"{schema.names}"
        )


def _with_key(schema: Schema, key: Optional[str]) -> Schema:
    if key is not None:
        return Schema(list(schema.columns), key=key)
    return schema


def read_csv(
    path: Union[str, Path],
    schema: Schema,
    key: Optional[str] = None,
    block_rows: int = BLOCK_ROWS,
) -> Relation:
    """Read a relation from ``path`` using ``schema`` for types.

    The header must match the schema's column names exactly (order
    included); ``key`` overrides the schema's key when given.
    """
    path = Path(path)
    parts: Dict[str, List[np.ndarray]] = {spec.name: [] for spec in schema}
    with _CsvFile(path, block_rows) as source:
        _check_header(path, source.header, schema)
        for first_record, block in source.blocks(_int_positions(schema)):
            for name, arr in _block_columns(
                path, schema, block, first_record
            ).items():
                parts[name].append(arr)
    columns = {
        spec.name: (
            np.concatenate(parts[spec.name])
            if parts[spec.name]
            else np.asarray(
                [], dtype=np.int64 if spec.dtype is Dtype.INT else object
            )
        )
        for spec in schema
    }
    return Relation(_with_key(schema, key), NumpyColumnStore(columns))


def read_csv_store(
    path: Union[str, Path],
    schema: Schema,
    *,
    key: Optional[str] = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    directory: Optional[Union[str, Path]] = None,
    block_rows: int = BLOCK_ROWS,
) -> Relation:
    """Read a CSV straight into a chunked on-disk column store.

    Each row block is parsed and appended to the store immediately;
    nothing proportional to the file size stays in RAM.  ``directory``
    of ``None`` uses a temporary directory tied to the relation's
    lifetime.
    """
    path = Path(path)
    with _CsvFile(path, block_rows) as source:
        _check_header(path, source.header, schema)
        writer = MmapStoreWriter(directory, schema, chunk_rows=chunk_rows)
        try:
            for first_record, block in source.blocks(_int_positions(schema)):
                writer.append(
                    _block_columns(path, schema, block, first_record)
                )
        except BaseException:
            writer.discard()
            raise
    return Relation(_with_key(schema, key), writer.finalize())


def _inferred_schema(
    header: List[str],
    is_int: List[bool],
    saw_rows: bool,
    key: Optional[str],
) -> Schema:
    """INT for the columns still ``is_int`` after some rows, else STR."""
    return Schema(
        [
            ColumnSpec(name, Dtype.INT if saw_rows and ok else Dtype.STR)
            for name, ok in zip(header, is_int)
        ],
        key=key,
    )


def infer_csv_schema(
    path: Union[str, Path],
    key: Optional[str] = None,
    block_rows: int = BLOCK_ROWS,
) -> Schema:
    """Infer a schema from the data in one streaming pass.

    A column whose every value is a canonical integer literal within
    the int64 range becomes :attr:`Dtype.INT`; everything else
    (including a column with no rows) stays a string.
    """
    path = Path(path)
    with _CsvFile(path, block_rows) as source:
        header = source.header
        is_int = [True] * len(header)
        saw_rows = False
        for _, block in source.blocks():
            saw_rows = True
            for i, ok in enumerate(is_int):
                if ok:
                    is_int[i] = block.ints(i) is not None
    return _inferred_schema(header, is_int, saw_rows, key)


def read_csv_infer(
    path: Union[str, Path],
    key: Optional[str] = None,
    block_rows: int = BLOCK_ROWS,
) -> Relation:
    """Read a CSV inferring column types from the data, in one pass.

    Column types are those :func:`infer_csv_schema` gives.  A column
    stays ``int64`` while every block holds canonical int64 literals
    only; the first block that does not demotes it to a string column,
    and the blocks already parsed are rendered back with ``str`` —
    exact, because a canonical literal is ``str(int(v))``.  Used by the
    CLI and the spec loader, where no schema object exists up front.
    """
    path = Path(path)
    with _CsvFile(path, block_rows) as source:
        header = source.header
        is_int = [True] * len(header)
        saw_rows = False
        parts: List[List[np.ndarray]] = [[] for _ in header]
        for _, block in source.blocks():
            saw_rows = True
            for i, blocks in enumerate(parts):
                parsed = block.ints(i) if is_int[i] else None
                if parsed is not None:
                    blocks.append(parsed)
                    continue
                if is_int[i]:
                    is_int[i] = False
                    blocks[:] = [_as_text(b) for b in blocks]
                blocks.append(block.text(i))
    schema = _inferred_schema(header, is_int, saw_rows, key)
    columns = {
        spec.name: (
            np.concatenate(blocks) if blocks else np.asarray([], dtype=object)
        )
        for spec, blocks in zip(schema, parts)
    }
    return Relation(schema, NumpyColumnStore(columns))


def _as_text(block: np.ndarray) -> np.ndarray:
    """An int64 block rendered back to its canonical literals.

    Exact for blocks :func:`_parse_ints` or :func:`_int_block` parsed,
    since canonical means ``str(int(v)) == v``.
    """
    return np.fromiter(
        map(str, block.tolist()), dtype=object, count=len(block)
    )
