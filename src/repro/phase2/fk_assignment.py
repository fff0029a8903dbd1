"""Algorithm 4 — completing ``R1.FK`` from the filled-in join view.

The view is partitioned by its full B-combo (the Section 5.2 optimization:
candidate keys are disjoint across combos, so conflict graphs stay small).
Each partition's conflict hypergraph is colored with Algorithm 3 against
the candidate list ``π_{K2} σ_{B=combo} R2̂``; skipped vertices receive
fresh keys, which materialise as new tuples appended to ``R2̂`` (this is
the second output of the paper's pipeline).  Invalid tuples — rows Phase I
could not give B-values — are resolved last by ``solveInvalidTuples``.

:func:`run_phase2` runs Phase II for every strategy.  A strategy
chooses only two things: the per-key cap of each combo partition (a
:class:`~repro.phase2.coloring.KeyCap`, or none for the paper's plain
Algorithm 3) and, through that, the invalid-tuple policy (capped runs
give each invalid tuple a fresh key instead).

Proposition 5.5 invariants (all DCs satisfied; ``R1̂ ⋈ R2̂ = V_join``) are
exercised by the integration tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.dc import DenialConstraint
from repro.errors import ColoringError
from repro.phase1.assignment import ViewAssignment
from repro.phase1.combos import ComboCatalog
from repro.phase2.coloring import KeyCap, coloring_lf
from repro.phase2.edges import build_conflict_graph
from repro.phase2.invalid import solve_invalid_tuples
from repro.relational.ordering import sort_key, tuple_sort_key
from repro.relational.relation import Relation
from repro.relational.schema import ColumnSpec
from repro.relational.types import Dtype

__all__ = [
    "Phase2Stats",
    "Phase2Result",
    "run_phase2",
    "FreshKeyFactory",
    "MintPool",
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
    """Mints primary-key values that do not collide with existing ones:
    integers for an INT key column, ``synthetic_<n>`` for a STR one."""

    def __init__(self, existing: Sequence[object], dtype: Dtype) -> None:
        self._existing: Set[object] = set(existing)
        self._numeric = dtype is Dtype.INT
        self._next_int = 1
        if self._numeric and self._existing:
            self._next_int = int(max(self._existing)) + 1

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
    #: Per-key capacity overflow (``key -> rows beyond the cap``) a soft
    #: cap accepted; empty when caps were hard or absent.
    overflow: Dict[object, int] = field(default_factory=dict)


def run_phase2(
    r1: Relation,
    r2: Relation,
    dcs: Sequence[DenialConstraint],
    assignment: ViewAssignment,
    catalog: ComboCatalog,
    fk_column: str,
    ccs: Sequence[CardinalityConstraint] = (),
    partitioned: bool = True,
    cap_of: Optional[Callable[[tuple], Optional[KeyCap]]] = None,
) -> Phase2Result:
    """Complete ``R1.FK`` so every DC holds; possibly grow ``R2``.

    ``cap_of(combo)`` gives a combo partition's per-key cap (``None`` =
    uncapped).  When it is set, invalid tuples take the fresh-key escape
    hatch (one fresh key each, on a CC-safe combo) so no cap is breached,
    and the overflow a soft cap accepted is recorded per key.

    ``partitioned=False`` builds a single global conflict graph with
    per-vertex candidate lists (the ablation of the Section 5.2
    optimization) — correct but quadratic in ``|R1|``; caps need the
    partitions, so it rejects ``cap_of``.
    """
    if cap_of is not None and not partitioned:
        raise ValueError("per-key caps need the combo partitions")
    stats = Phase2Stats()
    key_column = r2.schema.key
    key_dtype = r2.schema.dtype(key_column)
    pool = MintPool(FreshKeyFactory(list(r2.column(key_column)), key_dtype))
    new_r2_rows: List[tuple] = []
    coloring: Dict[int, object] = {}
    overflow: Dict[object, int] = {}

    keys_by_combo: Dict[tuple, List[object]] = {
        combo: list(keys) for combo, keys in catalog.keys_by_combo.items()
    }

    def record_new_key(key: object, combo: tuple) -> None:
        """Materialise a fresh key as a new R2 row carrying the combo's
        B-values and extend the combo's candidate list."""
        values = catalog.as_dict(combo)
        new_r2_rows.append(
            tuple(
                key if name == key_column else values[name]
                for name in r2.schema.names
            )
        )
        keys_by_combo.setdefault(combo, []).append(key)
        stats.num_new_r2_tuples += 1

    def candidates_of(combo: tuple) -> List[object]:
        keys = sorted(keys_by_combo.get(combo, []), key=sort_key)
        if not keys:
            raise ColoringError(
                f"no candidate keys for combo {combo!r}; Phase I "
                "assigned a combination absent from R2"
            )
        return keys

    # Partition the completed rows by their full B-combo — one
    # lexsort-and-split over the assignment's code matrix (chunked when
    # R1 itself is).
    partitions: Dict[tuple, List[int]] = partition_by_combo(assignment, r1)
    combos = sorted(partitions, key=tuple_sort_key)
    combo_of: Dict[int, tuple] = {}
    if partitioned:
        jobs = [
            (partitions[combo], combo, candidates_of(combo), None)
            for combo in combos
        ]
    else:
        # The ablation: one job (combo ``None``) over every row, each row
        # keeping its own combo's candidate list; ``combo_of`` tells
        # which combo a fresh key a row took belongs to.
        combo_of = {row: c for c in combos for row in partitions[c]}
        keys_of = {c: candidates_of(c) for c in combos}
        lists = {row: keys_of[c] for row, c in combo_of.items()}
        jobs = [(sorted(combo_of), None, [], lists)]

    for rows, combo, candidates, lists in jobs:
        cap = cap_of(combo) if cap_of is not None else None
        if not dcs and cap is None and lists is None:
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
        usage: Dict[object, int] = {}
        part, skipped = coloring_lf(graph, {}, candidates, lists, cap, usage)
        stats.num_skipped += len(skipped)
        # Algorithm 4's retry: skipped rows try fresh keys (the ablation
        # gives each row its own); keys a pass used become new R2 rows
        # under the combo of a row that took them, the rest go back to
        # the pool.
        guard = 0
        while skipped:
            guard += 1
            if guard > len(rows) + 1:
                raise ColoringError("fresh-color loop failed to make progress")
            fresh = pool.take(len(skipped))
            if lists is not None:
                lists = {row: [key] for row, key in zip(skipped, fresh)}
            retried = skipped
            part, skipped = coloring_lf(graph, part, fresh, lists, cap, usage)
            taker = {part[row]: row for row in retried if row in part}
            for key in fresh:
                if key in taker:
                    record_new_key(key, combo_of.get(taker[key], combo))
            pool.release([key for key in fresh if key not in taker])
        stats.coloring_seconds += time.perf_counter() - started
        coloring.update(part)
        if cap is not None:
            # A key serves one partition only (candidates are disjoint
            # across combos, fresh keys go to one pass), so its usage
            # here is its final count.
            for key, count in usage.items():
                if count > cap.max_per_key:
                    overflow[key] = count - cap.max_per_key

    # ------------------------------------------------------------------
    # Invalid tuples.
    # ------------------------------------------------------------------
    started = time.perf_counter()
    if cap_of is not None:
        # The capped strategies' escape hatch: each invalid row gets a
        # fresh key (usage 1, so no cap can be breached) on the first
        # combo that makes it count toward no CC, if there is one.
        for row in sorted(assignment.invalid):
            if not catalog.combos:
                raise ColoringError("R2 has no value combinations at all")
            safe = catalog.unused_for_row(r1.row(row), list(ccs))
            combo = safe[0] if safe else catalog.combos[0]
            key = pool.mint()
            record_new_key(key, combo)
            coloring[row] = key
            assignment.assign(row, catalog.as_dict(combo))
            assignment.invalid.discard(row)
            stats.num_invalid_handled += 1
    elif assignment.invalid:
        stats.num_invalid_handled = solve_invalid_tuples(
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
    stats.invalid_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    # Materialise R1̂ and R2̂.
    # ------------------------------------------------------------------
    if len(coloring) < assignment.n:
        missing = assignment.n - len(coloring)
        raise ColoringError(f"{missing} rows ended up uncolored")
    fk_values = [coloring[row] for row in range(assignment.n)]
    r1_hat = r1.with_column(ColumnSpec(fk_column, key_dtype), fk_values)
    r2_hat = r2.append_rows(new_r2_rows)
    stats.total_overflow = sum(overflow.values())
    return Phase2Result(
        r1_hat=r1_hat,
        r2_hat=r2_hat,
        coloring=coloring,
        stats=stats,
        overflow=overflow,
    )
