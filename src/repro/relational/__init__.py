"""Columnar relational substrate: relations, schemas, predicates, joins."""

from repro.relational.csvio import (
    infer_csv_schema,
    read_csv,
    read_csv_infer,
    read_csv_store,
    write_csv,
)
from repro.relational.database import Database, ForeignKey
from repro.relational.join import fk_join, fk_join_naive, join_view_schema
from repro.relational.ordering import sort_key, tuple_sort_key
from repro.relational.predicate import (
    TRUE_PREDICATE,
    Condition,
    Interval,
    Predicate,
    ValueSet,
    condition_from_atom,
)
from repro.relational.relation import Relation
from repro.relational.schema import ColumnSpec, Schema
from repro.relational.store import (
    DEFAULT_CHUNK_ROWS,
    ColumnStore,
    CompositeStore,
    MmapColumnStore,
    MmapStoreWriter,
    NumpyColumnStore,
)
from repro.relational.types import (
    CatDomain,
    Domain,
    Dtype,
    IntDomain,
    infer_dtype,
)

__all__ = [
    "CatDomain",
    "ColumnSpec",
    "ColumnStore",
    "CompositeStore",
    "Condition",
    "DEFAULT_CHUNK_ROWS",
    "Database",
    "Domain",
    "Dtype",
    "ForeignKey",
    "IntDomain",
    "Interval",
    "MmapColumnStore",
    "MmapStoreWriter",
    "NumpyColumnStore",
    "Predicate",
    "Relation",
    "Schema",
    "TRUE_PREDICATE",
    "ValueSet",
    "condition_from_atom",
    "fk_join",
    "fk_join_naive",
    "infer_csv_schema",
    "infer_dtype",
    "join_view_schema",
    "read_csv",
    "read_csv_infer",
    "read_csv_store",
    "sort_key",
    "tuple_sort_key",
    "write_csv",
]
