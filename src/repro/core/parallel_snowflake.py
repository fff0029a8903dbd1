"""Parallel solving of independent snowflake FK edges.

The snowflake traversal (Section 5.2) walks FK edges breadth-first, but
edges in one BFS layer whose read/write relation sets are disjoint are
independent subproblems.  This module provides the process-pool leg of
that scheduler; the pool itself, and the merge of results in BFS order,
live in :meth:`repro.core.snowflake.SnowflakeSynthesizer.solve`:

* :func:`solve_edge` — the single-edge solve both the sequential and the
  parallel paths share (per-edge strategy + solver overrides applied);
* :func:`edge_payload` / :func:`solve_edge_payload` — the worker
  protocol.  A payload ships only the column arrays and schemas of the
  two relations the edge's solve touches (its extended view and its
  parent), never the :class:`~repro.relational.database.Database`; the
  worker rebuilds the relations losslessly and returns the full
  :class:`~repro.core.synthesizer.CExtensionResult`.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Tuple

from repro.core.config import SolverConfig
from repro.core.synthesizer import CExtensionResult, CExtensionSolver
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.store import ColumnStore, NumpyColumnStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.snowflake import EdgeConstraints

__all__ = [
    "EdgePayload",
    "edge_payload",
    "solve_edge",
    "solve_edge_payload",
]

#: What crosses the process boundary for one edge: the extended view and
#: the parent relation as ``(schema, columns)`` pairs — a dict of raw
#: column arrays for in-RAM relations, or the relation's (picklable)
#: :class:`~repro.relational.store.ColumnStore` for disk-backed ones,
#: which ships only the store's directory path so worker memory stays
#: chunk-bounded — plus the FK column, the edge's constraint set and the
#: already-resolved config.
EdgePayload = Tuple[
    Schema, object, Schema, object, str, "EdgeConstraints", SolverConfig
]


def solve_edge(
    extended: Relation,
    parent: Relation,
    fk_column: str,
    constraints: "EdgeConstraints",
    config: SolverConfig,
) -> CExtensionResult:
    """Solve one FK edge with its per-edge strategy and solver overrides.

    The result's :attr:`~repro.core.synthesizer.SolveReport.wall_seconds`
    is stamped here, around the whole per-edge solve (phases plus
    evaluation), so both the sequential path and the pool workers report
    the edge's true wall clock wherever it ran.
    """
    started = time.perf_counter()
    strategy, options = constraints.resolved_strategy()
    solver = CExtensionSolver(constraints.effective_config(config))
    result = solver.solve(
        extended,
        parent,
        fk_column=fk_column,
        ccs=constraints.ccs,
        dcs=constraints.dcs,
        strategy=strategy,
        strategy_options=options,
    )
    result.report.wall_seconds = time.perf_counter() - started
    return result


def _relation_payload(relation: Relation) -> Tuple[Schema, object]:
    """``(schema, columns)`` — raw arrays only, no factorization caches.

    Disk-backed relations ship their column store instead (it pickles as
    a directory path and the worker re-opens the manifest), so the
    payload — and the worker's resident set — stays chunk-sized however
    large the relation is.
    """
    if relation.is_chunked:
        return (relation.schema, relation.store)
    return (
        relation.schema,
        {name: relation.column(name) for name in relation.schema.names},
    )


def edge_payload(
    extended: Relation,
    parent: Relation,
    fk_column: str,
    constraints: "EdgeConstraints",
    config: SolverConfig,
) -> EdgePayload:
    """Build the worker payload for one edge of a conflict-free batch."""
    ext_schema, ext_columns = _relation_payload(extended)
    parent_schema, parent_columns = _relation_payload(parent)
    return (
        ext_schema,
        ext_columns,
        parent_schema,
        parent_columns,
        fk_column,
        constraints,
        config,
    )


def _rebuild(schema: Schema, columns: object) -> Relation:
    """A shipped relation, on the store path: no second type scan."""
    if not isinstance(columns, ColumnStore):
        columns = NumpyColumnStore(columns)
    return Relation(schema, columns)


def solve_edge_payload(payload: EdgePayload) -> CExtensionResult:
    """Worker entry point: rebuild the relations and solve the edge.

    Relations are reconstructed with their *declared* schemas, never
    re-inferred from the shipped arrays (a categorical column whose
    values happen to be all integers would flip to ``INT`` and change
    DC evaluation), so the worker's solve is input-identical to the
    in-process solve of the same edge.
    """
    (
        ext_schema,
        ext_columns,
        parent_schema,
        parent_columns,
        fk_column,
        constraints,
        config,
    ) = payload
    extended = _rebuild(ext_schema, ext_columns)
    parent = _rebuild(parent_schema, parent_columns)
    return solve_edge(extended, parent, fk_column, constraints, config)
