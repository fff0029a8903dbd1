"""Algorithm 4 — completing ``R1.FK`` from the filled-in join view.

The view is partitioned by its full B-combo (the Section 5.2 optimization:
candidate keys are disjoint across combos, so conflict graphs stay small).
Each partition's conflict hypergraph is colored with Algorithm 3 against
the candidate list ``π_{K2} σ_{B=combo} R2̂``; skipped vertices receive
fresh keys, which materialise as new tuples appended to ``R2̂`` (this is
the second output of the paper's pipeline).  Invalid tuples — rows Phase I
could not give B-values — are resolved last by ``solveInvalidTuples``.

Proposition 5.5 invariants (all DCs satisfied; ``R1̂ ⋈ R2̂ = V_join``) are
exercised by the integration tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.dc import DenialConstraint
from repro.errors import ColoringError
from repro.phase1.assignment import ViewAssignment
from repro.phase1.combos import ComboCatalog
from repro.phase2.coloring import coloring_lf
from repro.phase2.edges import build_conflict_graph
from repro.phase2.invalid import solve_invalid_tuples
from repro.relational.ordering import sort_key, tuple_sort_key
from repro.relational.relation import Relation
from repro.relational.schema import ColumnSpec

__all__ = [
    "Phase2Stats",
    "Phase2Result",
    "run_phase2",
    "FreshKeyFactory",
    "MintPool",
    "color_skipped_with_fresh",
    "assign_invalid_fresh",
    "new_key_recorder",
    "partition_by_combo",
]


def partition_by_combo(
    assignment: ViewAssignment, r1: Relation
) -> Dict[tuple, List[int]]:
    """The Section-5.2 combo partitioning, chunk-aware.

    Every Phase-II strategy partitions the completed view the same way;
    when ``r1`` is disk-backed the assignment's code matrix is sorted one
    ``r1.chunk_rows``-sized block at a time (identical output, bounded
    working set).
    """
    return assignment.group_by_combo(
        chunk_rows=r1.chunk_rows if r1.is_chunked else None
    )


class FreshKeyFactory:
    """Mints primary-key values that do not collide with existing ones."""

    def __init__(self, existing: Sequence[object]) -> None:
        self._existing: Set[object] = set(existing)
        ints = [k for k in self._existing if isinstance(k, (int, np.integer))]
        self._next_int = (int(max(ints)) + 1) if ints else 1
        all_ints = len(ints) == len(self._existing)
        self._numeric = all_ints  # an empty key set also mints integers

    def mint(self) -> object:
        if self._numeric:
            while self._next_int in self._existing:
                self._next_int += 1
            key = int(self._next_int)
            self._next_int += 1
        else:
            n = len(self._existing)
            key = f"synthetic_{n}"
            while key in self._existing:
                n += 1
                key = f"synthetic_{n}"
        self._existing.add(key)
        return key


class MintPool:
    """Hands out fresh keys, reusing mints an earlier pass never claimed.

    A fresh-color pass mints one key per skipped vertex, but skipped
    vertices that are mutually non-conflicting share the first fresh key
    and the rest go unclaimed.  Discarding them leaks gaps into the R2̂
    key sequence (the factory never re-mints a key it handed out); the
    pool takes them back and serves them before minting anew, so the keys
    that materialise in R2̂ stay dense.
    """

    def __init__(self, factory: FreshKeyFactory) -> None:
        self._factory = factory
        self._unclaimed: List[object] = []

    def take(self, count: int) -> List[object]:
        """``count`` candidate keys: pooled leftovers first, then mints."""
        out = self._unclaimed[:count]
        del self._unclaimed[:count]
        while len(out) < count:
            out.append(self._factory.mint())
        return out

    def mint(self) -> object:
        """One key, drained from the pool before minting anew.

        Drop-in for :meth:`FreshKeyFactory.mint` so the invalid-tuple
        fallbacks also reuse unclaimed fresh-color mints.
        """
        return self.take(1)[0]

    def release(self, keys: Sequence[object]) -> None:
        """Return unclaimed keys for the next pass to reuse."""
        self._unclaimed.extend(keys)


@dataclass
class Phase2Stats:
    """Diagnostics for one Algorithm-4 run (feeds Figures 11–13)."""

    num_partitions: int = 0
    num_edges: int = 0
    num_skipped: int = 0
    num_new_r2_tuples: int = 0
    num_invalid_handled: int = 0
    #: Total capacity overflow accepted by a soft-capacity strategy
    #: (0 for the hard strategies, which never overflow).
    total_overflow: int = 0
    edge_seconds: float = 0.0
    coloring_seconds: float = 0.0
    invalid_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.edge_seconds + self.coloring_seconds + self.invalid_seconds


@dataclass
class Phase2Result:
    r1_hat: Relation
    r2_hat: Relation
    coloring: Dict[int, object]
    stats: Phase2Stats
    #: Per-key capacity overflow (``key -> rows beyond the cap``) reported
    #: by soft-capacity strategies; empty when capacities were hard or
    #: absent.
    overflow: Dict[object, int] = field(default_factory=dict)


def new_key_recorder(
    r2: Relation,
    catalog: ComboCatalog,
    keys_by_combo: Dict[tuple, List[object]],
    new_rows: List[tuple],
    stats: Phase2Stats,
):
    """The ``record_new_key(key, combo)`` closure every Phase-II strategy
    shares: materialise the fresh key as a new R2 row carrying the
    combo's B-values, extend the combo's candidate list, and count it."""
    key_column = r2.schema.key

    def record_new_key(key: object, combo: tuple) -> None:
        values = catalog.as_dict(combo)
        new_rows.append(
            tuple(
                key if name == key_column else values[name]
                for name in r2.schema.names
            )
        )
        keys_by_combo.setdefault(combo, []).append(key)
        stats.num_new_r2_tuples += 1

    return record_new_key


def color_skipped_with_fresh(
    num_rows: int,
    coloring: Dict[int, object],
    skipped: List[int],
    pool: MintPool,
    combo: tuple,
    record_new_key,
    color_pass,
    label: str = "fresh-color",
) -> Dict[int, object]:
    """Resolve ``skipped`` vertices with fresh keys (Algorithm 4's retry).

    ``color_pass(fresh, coloring) -> (coloring, skipped)`` runs one pass
    of the caller's coloring over the fresh candidates — the hook through
    which the capacity-family strategies reuse this loop with their own
    forbidding rules.  Fresh keys that a pass actually used materialise
    via ``record_new_key``; unclaimed ones return to the pool.
    """
    guard = 0
    while skipped:
        guard += 1
        if guard > num_rows + 1:
            raise ColoringError(f"{label} loop failed to make progress")
        fresh = pool.take(len(skipped))
        coloring, skipped = color_pass(fresh, coloring)
        used = set(coloring.values())
        for key in fresh:
            if key in used:
                record_new_key(key, combo)
        pool.release([k for k in fresh if k not in used])
    return coloring


def assign_invalid_fresh(
    r1: Relation,
    ccs: Sequence[CardinalityConstraint],
    assignment: ViewAssignment,
    catalog: ComboCatalog,
    pool: MintPool,
    coloring: Dict[int, object],
    record_new_key,
    usage: Optional[Dict[object, int]] = None,
) -> int:
    """The conservative invalid-tuple escape hatch of the capacity-family
    strategies: every invalid row gets a fresh key on a safe combo, so a
    usage of 1 can never breach a cap or quota.  Returns the number of
    rows handled."""
    invalid_rows = sorted(assignment.invalid)
    for row in invalid_rows:
        combo = catalog.combos[0] if catalog.combos else None
        if combo is None:
            raise ColoringError("R2 has no value combinations at all")
        safe = catalog.unused_for_row(r1.row(row), list(ccs))
        if safe:
            combo = safe[0]
        key = pool.mint()
        record_new_key(key, combo)
        coloring[row] = key
        if usage is not None:
            usage[key] = usage.get(key, 0) + 1
        assignment.assign(row, catalog.as_dict(combo))
        assignment.invalid.discard(row)
    return len(invalid_rows)


def run_phase2(
    r1: Relation,
    r2: Relation,
    dcs: Sequence[DenialConstraint],
    assignment: ViewAssignment,
    catalog: ComboCatalog,
    fk_column: str,
    ccs: Sequence[CardinalityConstraint] = (),
    partitioned: bool = True,
) -> Phase2Result:
    """Complete ``R1.FK`` so every DC holds; possibly grow ``R2``.

    ``partitioned=False`` builds a single global conflict graph with
    per-vertex candidate lists (the ablation of the Section 5.2
    optimization) — correct but quadratic in ``|R1|``.
    """
    stats = Phase2Stats()
    key_column = r2.schema.key
    factory = FreshKeyFactory(list(r2.column(key_column)))
    pool = MintPool(factory)
    new_r2_rows: List[tuple] = []
    coloring: Dict[int, object] = {}

    keys_by_combo: Dict[tuple, List[object]] = {
        combo: list(keys) for combo, keys in catalog.keys_by_combo.items()
    }

    # Partition the completed rows by their full B-combo — one
    # lexsort-and-split over the assignment's code matrix (chunked when
    # R1 itself is).
    partitions: Dict[tuple, List[int]] = partition_by_combo(assignment, r1)

    record_new_key = new_key_recorder(
        r2, catalog, keys_by_combo, new_r2_rows, stats
    )

    if partitioned:
        for combo in sorted(partitions.keys(), key=tuple_sort_key):
            rows = partitions[combo]
            candidates = sorted(keys_by_combo.get(combo, []), key=sort_key)
            if not candidates:
                raise ColoringError(
                    f"no candidate keys for combo {combo!r}; Phase I "
                    "assigned a combination absent from R2"
                )
            if not dcs:
                # No DCs ⇒ the conflict graph is empty and largest-first
                # visits the rows ascending, giving every one the first
                # candidate — same content and insertion order as the
                # coloring pass, without building the graph.
                started = time.perf_counter()
                coloring.update(dict.fromkeys(rows, candidates[0]))
                stats.num_partitions += 1
                stats.coloring_seconds += time.perf_counter() - started
                continue
            started = time.perf_counter()
            graph = build_conflict_graph(r1, dcs, rows)
            stats.edge_seconds += time.perf_counter() - started
            stats.num_edges += graph.num_edges
            stats.num_partitions += 1

            started = time.perf_counter()
            part_coloring, skipped = coloring_lf(graph, {}, candidates)
            stats.num_skipped += len(skipped)
            part_coloring = color_skipped_with_fresh(
                len(rows),
                part_coloring,
                skipped,
                pool,
                combo,
                record_new_key,
                lambda fresh, col, graph=graph: coloring_lf(graph, col, fresh),
            )
            stats.coloring_seconds += time.perf_counter() - started
            coloring.update(part_coloring)
    else:
        combo_of_row = {
            row: combo
            for combo, rows in partitions.items()
            for row in rows
        }
        all_rows = sorted(combo_of_row)
        started = time.perf_counter()
        graph = build_conflict_graph(r1, dcs, all_rows)
        stats.edge_seconds += time.perf_counter() - started
        stats.num_edges += graph.num_edges
        stats.num_partitions = 1
        candidate_lists = {
            row: sorted(keys_by_combo.get(combo_of_row[row], []), key=sort_key)
            for row in all_rows
        }
        started = time.perf_counter()
        coloring, skipped = coloring_lf(graph, coloring, [], candidate_lists)
        stats.num_skipped += len(skipped)
        guard = 0
        while skipped:
            guard += 1
            if guard > len(all_rows) + 1:
                raise ColoringError("fresh-color loop failed to make progress")
            fresh = pool.take(len(skipped))
            fresh_by_row = dict(zip(skipped, fresh))
            fresh_lists = {row: [key] for row, key in fresh_by_row.items()}
            coloring, skipped = coloring_lf(graph, coloring, [], fresh_lists)
            unused = []
            for row, key in fresh_by_row.items():
                if coloring.get(row) == key:
                    record_new_key(key, combo_of_row[row])
                else:
                    unused.append(key)
            pool.release(unused)
        stats.coloring_seconds += time.perf_counter() - started

    # ------------------------------------------------------------------
    # Invalid tuples.
    # ------------------------------------------------------------------
    started = time.perf_counter()
    if assignment.invalid:
        handled = solve_invalid_tuples(
            r1=r1,
            dcs=dcs,
            ccs=ccs,
            assignment=assignment,
            catalog=catalog,
            coloring=coloring,
            keys_by_combo=keys_by_combo,
            factory=pool,
            record_new_key=record_new_key,
        )
        stats.num_invalid_handled = handled
    stats.invalid_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    # Materialise R1̂ and R2̂.
    # ------------------------------------------------------------------
    if len(coloring) < assignment.n:
        missing = [
            row for row in range(assignment.n) if row not in coloring
        ]
        raise ColoringError(f"{len(missing)} rows ended up uncolored")
    fk_values = [coloring[row] for row in range(assignment.n)]
    key_dtype = r2.schema.dtype(key_column)
    r1_hat = r1.with_column(ColumnSpec(fk_column, key_dtype), fk_values)
    r2_hat = r2.append_rows(new_r2_rows)
    return Phase2Result(
        r1_hat=r1_hat, r2_hat=r2_hat, coloring=coloring, stats=stats
    )
