"""CSV import/export for relations.

Integer columns must be canonical base-10 literals (optional leading
``-``, no underscores, whitespace or redundant leading zeros) that fit
``int64``, so that a read→write round-trip preserves the cell text;
everything else is kept as a string.  The writer emits a plain header
row followed by the data — enough to round-trip any relation the
library produces.

Readers stream the file in fixed-size row blocks: the whole table is
never held as a list-of-rows plus a transposed copy.  ``read_csv`` still
returns an in-RAM relation (the arrays are the destination), but
``read_csv_store`` spills each block straight into a chunked on-disk
column store, keeping peak memory proportional to the block size.
``read_csv_infer`` infers the column types while it reads, in the same
single pass.  Each block's integer check is whole-list builtins, not a
per-cell Python loop.  Errors cite ``path:line`` with the physical line
the offending record starts on, which a quoted multi-line field makes
differ from the record number.  ``csv`` yields ``str`` only, so the
relations skip the STR-column type scan.
"""

from __future__ import annotations

import csv
import itertools
import operator
from pathlib import Path
from typing import (
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
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


def write_csv(relation: Relation, path: Union[str, Path]) -> None:
    """Write a relation to ``path`` with a header row.

    Chunked relations are exported one chunk at a time; nothing beyond a
    chunk of each column is materialised.
    """
    path = Path(path)
    names = relation.schema.names
    store = relation.store
    with path.open("w", newline="") as handle:
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
    the definition :func:`_int_block` checks a block at a time, and the
    test the error path uses to find the offending cell.
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


def _int_column(
    path: Path,
    name: str,
    values: Sequence[str],
    first_record: int,
) -> np.ndarray:
    """Parse one block of an integer column, strictly.

    The happy path is :func:`_int_block`; only the error path rescans
    to locate the offending cell.
    """
    parsed = _int_block(values)
    if parsed is not None:
        return parsed
    for offset, value in enumerate(values):
        if not _is_canonical_int(value):
            expected = "an integer"
        elif _int_block([value]) is None:
            expected = "an integer in the int64 range"
        else:
            continue
        line = _line_of(path, first_record + offset)
        raise SchemaError(
            f"{path}:{line}: column {name!r} expects {expected}, "
            f"got {value!r}"
        )
    raise AssertionError("unreachable")  # pragma: no cover


def _line_of(path: Path, record: int) -> int:
    """The physical line CSV record ``record`` starts on.

    Records count from 1 at the header.  A quoted field may span
    lines, so the line is found by re-reading the file up to the
    record.  Only the error paths call this: a read that succeeds never
    counts lines.
    """
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        for _ in itertools.islice(reader, record - 1):
            pass
        return reader.line_num + 1


def _open_reader(
    path: Path,
) -> Tuple[TextIO, Iterator[List[str]], List[str]]:
    handle = path.open(newline="")
    reader = csv.reader(handle)
    header = next(reader, None)
    if header is None:
        handle.close()
        raise SchemaError(f"{path} is empty")
    return handle, reader, header


def _iter_blocks(
    path: Path,
    reader: Iterator[List[str]],
    width: int,
    block_rows: int,
) -> Iterator[Tuple[int, List[List[str]]]]:
    """Yield ``(first_record, rows)`` blocks, validating field counts.

    Records count from 1 at the header, so the first data record is 2.
    """
    record = 2
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


def _as_text(block: np.ndarray) -> np.ndarray:
    """An int64 block rendered back to its canonical literals.

    Exact for blocks :func:`_int_block` parsed, since canonical means
    ``str(int(v)) == v``.
    """
    return np.fromiter(
        map(str, block.tolist()), dtype=object, count=len(block)
    )


def _block_columns(
    path: Path,
    schema: Schema,
    rows: List[List[str]],
    first_record: int,
) -> Dict[str, np.ndarray]:
    columns: Dict[str, np.ndarray] = {}
    for i, spec in enumerate(schema):
        values = [row[i] for row in rows]
        if spec.dtype is Dtype.INT:
            columns[spec.name] = _int_column(
                path, spec.name, values, first_record
            )
        else:
            columns[spec.name] = np.asarray(values, dtype=object)
    return columns


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
    handle, reader, header = _open_reader(path)
    with handle:
        _check_header(path, header, schema)
        parts: Dict[str, List[np.ndarray]] = {
            spec.name: [] for spec in schema
        }
        for first_record, rows in _iter_blocks(
            path, reader, len(schema), block_rows
        ):
            block = _block_columns(path, schema, rows, first_record)
            for name, arr in block.items():
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
    handle, reader, header = _open_reader(path)
    with handle:
        _check_header(path, header, schema)
        writer = MmapStoreWriter(
            directory,
            [
                (spec.name, "int" if spec.dtype is Dtype.INT else "dict")
                for spec in schema
            ],
            chunk_rows=chunk_rows,
        )
        try:
            for first_record, rows in _iter_blocks(
                path, reader, len(schema), block_rows
            ):
                writer.append(
                    _block_columns(path, schema, rows, first_record)
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
    handle, reader, header = _open_reader(path)
    is_int = [True] * len(header)
    saw_rows = False
    with handle:
        for _, rows in _iter_blocks(path, reader, len(header), block_rows):
            saw_rows = True
            for i, ok in enumerate(is_int):
                if ok:
                    values = [row[i] for row in rows]
                    is_int[i] = _int_block(values) is not None
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
    handle, reader, header = _open_reader(path)
    is_int = [True] * len(header)
    saw_rows = False
    parts: List[List[np.ndarray]] = [[] for _ in header]
    with handle:
        for _, rows in _iter_blocks(path, reader, len(header), block_rows):
            saw_rows = True
            for i, blocks in enumerate(parts):
                values = [row[i] for row in rows]
                parsed = _int_block(values) if is_int[i] else None
                if parsed is not None:
                    blocks.append(parsed)
                    continue
                if is_int[i]:
                    is_int[i] = False
                    blocks[:] = [_as_text(block) for block in blocks]
                blocks.append(np.asarray(values, dtype=object))
    schema = _inferred_schema(header, is_int, saw_rows, key)
    columns = {
        spec.name: (
            np.concatenate(blocks) if blocks else np.asarray([], dtype=object)
        )
        for spec, blocks in zip(schema, parts)
    }
    return Relation(schema, NumpyColumnStore(columns))
