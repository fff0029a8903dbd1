"""Capacity-constrained FK assignment (the paper's future-work item 1).

The paper's linear CCs count join-view rows; its conclusions name
*non-linear* CCs — constraints "on the number of rows that share the same
foreign key" — as future work.  The most common such constraint is a
**capacity**: no key may be referenced by more than ``max_per_key`` rows
(census households have bounded size; a department hosts at most so many
majors).

This module extends Phase II's list coloring with per-color capacities: a
color becomes forbidden once its usage reaches the cap, in addition to
Algorithm 3's DC-based forbidding.  Skipped vertices receive fresh keys
exactly as in Algorithm 4, so the capacity invariant always holds in the
output (at the price of possibly more fresh R2 tuples).

The capacity pass is registered as the ``"capacity"`` Phase-II strategy
(see :mod:`repro.core.stages`), so the unified solver and the spec-driven
:func:`repro.synthesize` front door reach it by name;
:func:`solve_with_capacity` survives as a convenience shim over that
path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.dc import DenialConstraint
from repro.core.config import SolverConfig
from repro.core.metrics import ErrorReport
from repro.core.stages import register_phase2_strategy
from repro.errors import ReproError
from repro.phase1.assignment import ViewAssignment
from repro.phase1.combos import ComboCatalog
from repro.phase2.edges import build_conflict_graph
from repro.phase2.fk_assignment import (
    FreshKeyFactory,
    MintPool,
    Phase2Result,
    Phase2Stats,
    assign_invalid_fresh,
    color_skipped_with_fresh,
    new_key_recorder,
    partition_by_combo,
)
from repro.phase2.hypergraph import ConflictHypergraph
from repro.relational.ordering import sort_key, tuple_sort_key
from repro.relational.relation import Relation
from repro.relational.schema import ColumnSpec

__all__ = [
    "capacity_coloring",
    "CapacityResult",
    "solve_with_capacity",
    "fk_usage_histogram",
]


def capacity_coloring(
    graph: ConflictHypergraph,
    candidates: Sequence[object],
    max_per_key: int,
    coloring: Optional[Dict[int, object]] = None,
    usage: Optional[Dict[object, int]] = None,
) -> Tuple[Dict[int, object], List[int]]:
    """Largest-first list coloring with a per-color usage cap.

    Follows Algorithm 3 exactly, with one extra forbidding rule: a color
    whose usage has reached ``max_per_key`` is unavailable.  ``usage`` may
    carry pre-existing counts (e.g. from earlier partitions sharing keys).
    """
    if max_per_key < 1:
        raise ReproError("max_per_key must be at least 1")
    coloring = coloring if coloring is not None else {}
    usage = usage if usage is not None else {}
    for color in coloring.values():
        usage.setdefault(color, 0)

    skipped: List[int] = []
    for v in graph.order(coloring):
        forbidden = graph.forbidden(v, coloring)
        chosen = next(
            (
                c
                for c in candidates
                if c not in forbidden and usage.get(c, 0) < max_per_key
            ),
            None,
        )
        if chosen is None:
            skipped.append(v)
        else:
            coloring[v] = chosen
            usage[chosen] = usage.get(chosen, 0) + 1
    return coloring, skipped


@dataclass
class CapacityResult:
    """Output of a capacity-constrained solve."""

    r1_hat: Relation
    r2_hat: Relation
    fk_column: str
    max_per_key: int
    num_new_r2_tuples: int
    errors: Optional[ErrorReport] = None

    def usage(self) -> Dict[object, int]:
        return fk_usage_histogram(self.r1_hat, self.fk_column)


def fk_usage_histogram(r1_hat: Relation, fk_column: str) -> Dict[object, int]:
    """How many rows reference each key (the non-linear CC's subject)."""
    out: Dict[object, int] = {}
    for value in r1_hat.column(fk_column):
        out[value] = out.get(value, 0) + 1
    return out


@register_phase2_strategy("capacity")
def capacity_phase2(
    r1: Relation,
    r2: Relation,
    dcs: Sequence[DenialConstraint],
    assignment: ViewAssignment,
    catalog: ComboCatalog,
    fk_column: str,
    *,
    ccs: Sequence[CardinalityConstraint] = (),
    config: Optional[SolverConfig] = None,
    options: Optional[Mapping[str, object]] = None,
) -> Phase2Result:
    """The ``"capacity"`` Phase-II strategy: Algorithm 4 with a usage cap.

    Swaps Algorithm 3 for :func:`capacity_coloring`.  All DCs hold exactly
    and every key serves at most ``options["max_per_key"]`` rows; both
    invariants are enforced even for invalid tuples (which here always
    receive fresh keys — the safest capacity-respecting choice).
    """
    options = dict(options or {})
    max_per_key = options.pop("max_per_key", None)
    if options:
        raise ReproError(
            f"unknown capacity strategy options {sorted(options)}"
        )
    if not isinstance(max_per_key, int):
        raise ReproError(
            "the capacity strategy requires an integer 'max_per_key' option"
        )

    stats = Phase2Stats()
    key_column = r2.schema.key
    factory = FreshKeyFactory(list(r2.column(key_column)))
    pool = MintPool(factory)
    keys_by_combo = {c: list(k) for c, k in catalog.keys_by_combo.items()}
    new_rows: List[tuple] = []
    coloring: Dict[int, object] = {}
    usage: Dict[object, int] = {}
    record_new_key = new_key_recorder(
        r2, catalog, keys_by_combo, new_rows, stats
    )

    partitions: Dict[tuple, List[int]] = partition_by_combo(assignment, r1)

    started = time.perf_counter()
    for combo in sorted(partitions.keys(), key=tuple_sort_key):
        rows = partitions[combo]
        graph = build_conflict_graph(r1, dcs, rows)
        stats.num_partitions += 1
        stats.num_edges += graph.num_edges
        candidates = sorted(keys_by_combo.get(combo, []), key=sort_key)
        part_coloring, skipped = capacity_coloring(
            graph, candidates, max_per_key, {}, usage
        )
        stats.num_skipped += len(skipped)
        part_coloring = color_skipped_with_fresh(
            len(rows), part_coloring, skipped, pool, combo, record_new_key,
            lambda fresh, col, graph=graph: capacity_coloring(
                graph, fresh, max_per_key, col, usage
            ),
            label="capacity coloring",
        )
        coloring.update(part_coloring)
    stats.coloring_seconds = time.perf_counter() - started

    # Invalid tuples: fresh keys with an arbitrary safe combo (capacity 1
    # usage each) — the conservative capacity-respecting escape hatch.
    started = time.perf_counter()
    stats.num_invalid_handled = assign_invalid_fresh(
        r1, ccs, assignment, catalog, pool, coloring, record_new_key,
        usage=usage,
    )
    stats.invalid_seconds = time.perf_counter() - started

    fk_values = [coloring[row] for row in range(assignment.n)]
    key_dtype = r2.schema.dtype(key_column)
    r1_hat = r1.with_column(ColumnSpec(fk_column, key_dtype), fk_values)
    r2_hat = r2.append_rows(new_rows)
    return Phase2Result(
        r1_hat=r1_hat, r2_hat=r2_hat, coloring=coloring, stats=stats
    )


def solve_with_capacity(
    r1: Relation,
    r2: Relation,
    *,
    fk_column: str,
    max_per_key: int,
    ccs: Sequence[CardinalityConstraint] = (),
    dcs: Sequence[DenialConstraint] = (),
    config: Optional[SolverConfig] = None,
) -> CapacityResult:
    """C-Extension with a hard per-key capacity.

    A convenience shim over the unified solver: Phase I is the unchanged
    hybrid; Phase II dispatches to the registered ``"capacity"`` strategy.
    Identical to ``CExtensionSolver(config).solve(..., strategy="capacity",
    strategy_options={"max_per_key": max_per_key})``.
    """
    from repro.core.synthesizer import CExtensionSolver

    result = CExtensionSolver(config).solve(
        r1,
        r2,
        fk_column=fk_column,
        ccs=ccs,
        dcs=dcs,
        strategy="capacity",
        strategy_options={"max_per_key": max_per_key},
    )
    return CapacityResult(
        r1_hat=result.r1_hat,
        r2_hat=result.r2_hat,
        fk_column=fk_column,
        max_per_key=max_per_key,
        num_new_r2_tuples=result.phase2.stats.num_new_r2_tuples,
        errors=result.report.errors,
    )
