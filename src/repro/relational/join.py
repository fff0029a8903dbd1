"""Foreign-key joins and the join view used throughout the paper.

The central object of Phase I is ``V_join = R1 ⋈_{FK=K2} R2``.  Because the
dependence is a foreign key into ``R2``'s primary key, the join has exactly
one output row per ``R1`` row (``|V_join| = |R1|``), carrying ``R1``'s
non-key attributes plus ``R2``'s non-key attributes.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import KeyLookupError, SchemaError
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.store import NumpyColumnStore

__all__ = [
    "fk_join",
    "fk_join_naive",
    "join_view_schema",
    "materialize_fk_join",
]


def join_view_schema(
    r1: Relation, r2: Relation, fk_column: str, include_fk: bool = False
) -> Schema:
    """The schema of ``V_join``: R1's columns (minus FK) plus R2's non-key.

    ``include_fk=True`` keeps the FK column, which is convenient when the
    caller wants to inspect the completed assignment.
    """
    if r2.schema.key is None:
        raise SchemaError("R2 must declare a primary key column")
    specs = [
        spec
        for spec in r1.schema
        if spec.name != fk_column or include_fk
    ]
    for spec in r2.schema:
        if spec.name == r2.schema.key:
            continue
        if spec.name in {s.name for s in specs}:
            raise SchemaError(
                f"column name collision on {spec.name!r} between R1 and R2"
            )
        specs.append(spec)
    return Schema(specs, key=r1.schema.key)


def fk_join(
    r1: Relation,
    r2: Relation,
    fk_column: str,
    output_columns: Optional[Sequence[str]] = None,
) -> Relation:
    """Compute ``R1 ⋈_{FK=K2} R2`` for a filled-in FK column.

    Every FK value in ``R1`` must exist as a key in ``R2``; the result has
    one row per ``R1`` row.  ``output_columns`` optionally projects the
    result.  The key lookup is the vectorised sorted-key ``searchsorted``
    of :meth:`Relation.key_positions`.
    """
    if fk_column not in r1.schema:
        raise SchemaError(f"R1 has no FK column {fk_column!r}")
    if r2.schema.key is None:
        raise SchemaError("R2 must declare a primary key column")

    fk_values = r1.column(fk_column)
    try:
        r2_rows = r2.key_positions(fk_values)
    except KeyLookupError as exc:
        raise SchemaError(
            f"FK {exc} — no matching key in R2"
        ) from None

    return materialize_fk_join(r1, r2, fk_column, r2_rows, output_columns)


def fk_join_naive(
    r1: Relation,
    r2: Relation,
    fk_column: str,
    output_columns: Optional[Sequence[str]] = None,
) -> Relation:
    """Per-row dict-lookup reference implementation of :func:`fk_join`."""
    if fk_column not in r1.schema:
        raise SchemaError(f"R1 has no FK column {fk_column!r}")
    if r2.schema.key is None:
        raise SchemaError("R2 must declare a primary key column")

    key_to_row = r2.key_index_naive()
    fk_values = r1.column(fk_column)
    try:
        r2_rows = np.asarray(
            [key_to_row[v] for v in fk_values], dtype=np.int64
        )
    except KeyError as exc:  # pragma: no cover - message formatting
        raise SchemaError(
            f"FK value {exc.args[0]!r} has no matching key in R2"
        ) from None

    return materialize_fk_join(r1, r2, fk_column, r2_rows, output_columns)


def materialize_fk_join(
    r1: Relation,
    r2: Relation,
    fk_column: str,
    r2_rows: np.ndarray,
    output_columns: Optional[Sequence[str]] = None,
) -> Relation:
    """Build the join view from an already-computed row mapping.

    ``r2_rows[i]`` is the ``R2`` row joined to ``R1`` row ``i``.  Both
    join strategies — the sorted-key ``searchsorted`` above and the
    per-row dict reference — materialise their result through this one
    function, so the output relation is byte-identical whichever found
    the row mapping.  The view's columns come from checked relations,
    so it is built on the store path, without a second type scan.
    """
    schema = join_view_schema(r1, r2, fk_column, include_fk=True)
    columns = {}
    for spec in schema:
        if spec.name in r1.schema:
            columns[spec.name] = r1.column(spec.name)
        else:
            columns[spec.name] = r2.column(spec.name)[r2_rows]
    joined = Relation(schema, NumpyColumnStore(columns))
    if output_columns is not None:
        joined = joined.project(list(output_columns))
    return joined
