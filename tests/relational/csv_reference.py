"""The two-pass CSV reader of the previous release, kept as an oracle.

``infer_csv_schema`` reads the file once to type its columns and
``read_csv_infer`` reads it again to parse them, checking each cell in
Python.  ``test_csv_equivalence.py`` holds the one-pass reader in
:mod:`repro.relational.csvio` to the same schema, the same relation
and the same error text, on every input this version read without
crashing.  Files are opened as UTF-8, as the current readers open them,
so the oracle does not depend on the locale either.
"""

from __future__ import annotations

import csv
import itertools
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SchemaError
from repro.relational.relation import Relation
from repro.relational.schema import ColumnSpec, Schema
from repro.relational.types import Dtype

#: Rows per streaming block — small enough to bound memory, large enough
#: to amortise the per-block numpy conversions.
BLOCK_ROWS = 65_536


def _is_canonical_int(text: str) -> bool:
    """Whether ``text`` is exactly ``str(int(text))``.

    Bare :func:`int` also accepts ``"1_000"``, ``" 3 "``, ``"+7"``,
    ``"00"`` and non-ASCII digits — all of which would be silently
    rewritten on the next export, so they are rejected here.
    """
    body = text[1:] if text.startswith("-") else text
    if not body or not (body.isascii() and body.isdigit()):
        return False
    if len(body) > 1 and body[0] == "0":
        return False
    return not (text.startswith("-") and body == "0")


def _int_column(
    path: Path,
    name: str,
    values: Sequence[str],
    first_line: int = 2,
) -> np.ndarray:
    """Parse one block of an integer column, strictly.

    The happy path is a single ``map(int, …)`` pass plus a canonicality
    sweep; only the error path rescans to locate the offending line.
    """
    try:
        parsed = np.fromiter(
            map(int, values), dtype=np.int64, count=len(values)
        )
    except ValueError:
        parsed = None
    if parsed is not None and all(map(_is_canonical_int, values)):
        return parsed
    for line_no, value in enumerate(values, start=first_line):
        if not _is_canonical_int(value):
            raise SchemaError(
                f"{path}:{line_no}: column {name!r} "
                f"expects an integer, got {value!r}"
            )
    raise AssertionError("unreachable")  # pragma: no cover


def _open_reader(path: Path) -> Tuple[object, Iterator[List[str]], List[str]]:
    handle = path.open(encoding="utf-8", newline="")
    reader = csv.reader(handle)
    try:
        header = next(reader, None)
    except UnicodeDecodeError:
        handle.close()
        raise
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
    """Yield ``(first_line_no, rows)`` blocks, validating field counts."""
    line_no = 2
    while True:
        rows = list(itertools.islice(reader, block_rows))
        if not rows:
            return
        for offset, raw in enumerate(rows):
            if len(raw) != width:
                raise SchemaError(
                    f"{path}:{line_no + offset}: expected {width} fields, "
                    f"got {len(raw)}"
                )
        yield line_no, rows
        line_no += len(rows)


def _block_columns(
    path: Path,
    schema: Schema,
    rows: List[List[str]],
    first_line: int,
) -> Dict[str, np.ndarray]:
    columns: Dict[str, np.ndarray] = {}
    for i, spec in enumerate(schema):
        values = [row[i] for row in rows]
        if spec.dtype is Dtype.INT:
            columns[spec.name] = _int_column(
                path, spec.name, values, first_line
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
        for first_line, rows in _iter_blocks(
            path, reader, len(schema), block_rows
        ):
            block = _block_columns(path, schema, rows, first_line)
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
    return Relation(_with_key(schema, key), columns)


def infer_csv_schema(
    path: Union[str, Path],
    key: Optional[str] = None,
    block_rows: int = BLOCK_ROWS,
) -> Schema:
    """Infer a schema from the data in one streaming pass.

    A column whose every value is a canonical integer literal becomes
    :attr:`Dtype.INT`; everything else (including a column with no rows)
    stays a string.
    """
    path = Path(path)
    handle, reader, header = _open_reader(path)
    with handle:
        int_ok = [True] * len(header)
        saw_rows = False
        for _, rows in _iter_blocks(path, reader, len(header), block_rows):
            saw_rows = True
            for i in range(len(header)):
                if int_ok[i]:
                    int_ok[i] = all(
                        _is_canonical_int(row[i]) for row in rows
                    )
    specs = [
        ColumnSpec(name, Dtype.INT if saw_rows and ok else Dtype.STR)
        for name, ok in zip(header, int_ok)
    ]
    return Schema(specs, key=key)


def read_csv_infer(
    path: Union[str, Path],
    key: Optional[str] = None,
    block_rows: int = BLOCK_ROWS,
) -> Relation:
    """Read a CSV inferring column types from the data.

    Inference and parsing are two streaming passes over the file.  Used
    by the CLI, where no schema object exists up front.
    """
    schema = infer_csv_schema(path, key=key, block_rows=block_rows)
    return read_csv(path, schema, block_rows=block_rows)
