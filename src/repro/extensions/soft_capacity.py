"""Soft-capacity FK assignment: capacities as penalised soft constraints.

The hard ``"capacity"`` strategy (:mod:`repro.extensions.capacity`) forbids
a key outright once its usage reaches ``max_per_key`` and mints a fresh R2
tuple for every saturated vertex.  Real workloads often prefer the
opposite trade: keep the parent table small and *tolerate* a little
overflow, as long as the total overflow is minimised.

The ``"soft_capacity"`` strategy implements that trade as a penalised
objective inside Algorithm 3's greedy choice.  For a vertex ``v`` each
DC-permitted candidate key ``c`` costs::

    cost(c) = 0                                  if usage(c) < max_per_key
    cost(c) = penalty * (usage(c) + 1 - max_per_key)   otherwise

and ``v`` takes the cheapest candidate (candidate order breaks ties, so a
zero-cost choice is exactly the hard strategy's choice).  A vertex is
skipped — falling through to Algorithm 4's fresh keys — only when every
candidate is DC-forbidden, when the best cost is infinite
(``penalty = inf`` recovers the hard strategy, output-identically), or
when it exceeds ``new_tuple_cost`` (the price of minting a fresh parent
tuple; ``inf`` by default, i.e. never mint just to dodge an overflow).

The per-key overflow that was accepted is reported in
:attr:`Phase2Result.overflow` and summed in
:attr:`Phase2Stats.total_overflow`.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.dc import DenialConstraint
from repro.core.config import SolverConfig
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

__all__ = ["soft_capacity_coloring", "soft_capacity_phase2"]


def soft_capacity_coloring(
    graph: ConflictHypergraph,
    candidates: Sequence[object],
    max_per_key: int,
    penalty: float,
    new_tuple_cost: float,
    coloring: Optional[Dict[int, object]] = None,
    usage: Optional[Dict[object, int]] = None,
) -> Tuple[Dict[int, object], List[int]]:
    """Largest-first list coloring with penalised (soft) usage caps.

    Follows Algorithm 3's visit order and DC forbidding exactly; the only
    change is the candidate choice, which minimises the overflow penalty
    instead of hard-forbidding saturated colors.  With
    ``penalty = math.inf`` every saturated color costs infinity and the
    pass reproduces :func:`repro.extensions.capacity.capacity_coloring`
    choice-for-choice.
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
        best = None
        best_cost = math.inf
        for c in candidates:
            if c in forbidden:
                continue
            over = usage.get(c, 0) + 1 - max_per_key
            cost = 0.0 if over <= 0 else penalty * over
            if cost < best_cost:
                best_cost = cost
                best = c
                if cost == 0.0:
                    break  # first under-cap candidate == the hard choice
        if best is None or math.isinf(best_cost) or best_cost > new_tuple_cost:
            skipped.append(v)
        else:
            coloring[v] = best
            usage[best] = usage.get(best, 0) + 1
    return coloring, skipped


@register_phase2_strategy("soft_capacity")
def soft_capacity_phase2(
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
    """The ``"soft_capacity"`` Phase-II strategy.

    Options:

    * ``max_per_key`` (required int) — the per-key capacity;
    * ``penalty`` (float, default ``1.0``) — objective cost per unit of
      overflow; ``inf`` makes the cap hard (output-identical to the
      ``"capacity"`` strategy);
    * ``new_tuple_cost`` (float, default ``inf``) — cost of minting a
      fresh parent tuple instead of overflowing; a vertex whose cheapest
      overflow would exceed it is skipped to Algorithm 4's fresh keys.

    All DCs hold exactly; capacities may overflow, and the realised
    per-key overflow is reported in the result.
    """
    options = dict(options or {})
    max_per_key = options.pop("max_per_key", None)
    penalty = options.pop("penalty", 1.0)
    new_tuple_cost = options.pop("new_tuple_cost", math.inf)
    if options:
        raise ReproError(
            f"unknown soft_capacity strategy options {sorted(options)}"
        )
    if not isinstance(max_per_key, int) or isinstance(max_per_key, bool):
        raise ReproError(
            "the soft_capacity strategy requires an integer "
            "'max_per_key' option"
        )
    penalty = float(penalty)
    new_tuple_cost = float(new_tuple_cost)
    if penalty <= 0:
        raise ReproError("soft_capacity 'penalty' must be positive")
    if new_tuple_cost < 0:
        raise ReproError("soft_capacity 'new_tuple_cost' must be >= 0")

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
        part_coloring, skipped = soft_capacity_coloring(
            graph, candidates, max_per_key, penalty, new_tuple_cost,
            {}, usage,
        )
        stats.num_skipped += len(skipped)
        part_coloring = color_skipped_with_fresh(
            len(rows), part_coloring, skipped, pool, combo, record_new_key,
            lambda fresh, col, graph=graph: soft_capacity_coloring(
                graph, fresh, max_per_key, penalty, new_tuple_cost,
                col, usage,
            ),
            label="soft-capacity coloring",
        )
        coloring.update(part_coloring)
    stats.coloring_seconds = time.perf_counter() - started

    # Invalid tuples: fresh keys with an arbitrary safe combo, exactly as
    # in the hard capacity strategy (the conservative escape hatch that
    # can never add overflow).
    started = time.perf_counter()
    stats.num_invalid_handled = assign_invalid_fresh(
        r1, ccs, assignment, catalog, pool, coloring, record_new_key,
        usage=usage,
    )
    stats.invalid_seconds = time.perf_counter() - started

    overflow = {
        key: count - max_per_key
        for key, count in usage.items()
        if count > max_per_key
    }
    stats.total_overflow = sum(overflow.values())

    fk_values = [coloring[row] for row in range(assignment.n)]
    key_dtype = r2.schema.dtype(key_column)
    r1_hat = r1.with_column(ColumnSpec(fk_column, key_dtype), fk_values)
    r2_hat = r2.append_rows(new_rows)
    return Phase2Result(
        r1_hat=r1_hat,
        r2_hat=r2_hat,
        coloring=coloring,
        stats=stats,
        overflow=overflow,
    )
