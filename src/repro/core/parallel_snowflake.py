"""Parallel solving of independent snowflake FK edges.

The snowflake traversal (Section 5.2) walks FK edges breadth-first, but
edges in one BFS layer whose read/write relation sets are disjoint are
independent subproblems.  This module provides the process-pool leg of
that scheduler; the pool itself, and the merge of results in BFS order,
live in :meth:`repro.core.snowflake.SnowflakeSynthesizer.solve`:

* :func:`solve_edge` — the single-edge solve both the sequential and the
  parallel paths share (per-edge strategy + solver overrides applied);
* :func:`solve_edge_args` — the pool's entry point, :func:`solve_edge`
  over one argument tuple.  The tuple holds the two relations the
  edge's solve touches (its extended view and its parent), never the
  :class:`~repro.relational.database.Database`.  A relation pickles as
  its declared schema and its column store, without caches, and an
  on-disk store as its directory path, so worker memory stays
  chunk-bounded; the worker returns the full
  :class:`~repro.core.synthesizer.CExtensionResult` the same way.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Tuple

from repro.core.config import SolverConfig
from repro.core.synthesizer import CExtensionResult, CExtensionSolver
from repro.relational.relation import Relation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.snowflake import EdgeConstraints

__all__ = ["solve_edge", "solve_edge_args"]


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


def solve_edge_args(
    args: Tuple[Relation, Relation, str, "EdgeConstraints", SolverConfig],
) -> CExtensionResult:
    """Worker entry point: :func:`solve_edge` over one argument tuple."""
    return solve_edge(*args)
