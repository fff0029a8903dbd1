"""Algorithm 4 — completing ``R1.FK`` from the filled-in join view.

The view is partitioned by its full B-combo (the Section 5.2 optimization:
candidate keys are disjoint across combos, so conflict graphs stay small).
Each partition's conflict hypergraph is colored with Algorithm 3 against
the candidate list ``π_{K2} σ_{B=combo} R2̂``; skipped vertices receive
fresh keys, which materialise as new tuples appended to ``R2̂`` (this is
the second output of the paper's pipeline).  Invalid tuples — rows Phase I
could not give B-values — are resolved last by ``solveInvalidTuples``.

A color is a position in the edge's :class:`KeyTable` (R2's keys in row
order, then the keys minted for the edge), and the coloring is one int64
array over R1 rows, ``-1`` for uncolored.  A partition is an array of
rows; a DC-free, uncapped one is colored by one scatter, and ``R1̂.FK``
is one gather from the table — Phase II makes no Python object per row.

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
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.dc import DenialConstraint
from repro.errors import ColoringError
from repro.phase1.assignment import ViewAssignment
from repro.phase1.combos import ComboCatalog
from repro.phase2.coloring import KeyCap, coloring_lf
from repro.phase2.edges import build_conflict_graph
from repro.phase2.invalid import solve_invalid_tuples
from repro.relational.ordering import tuple_sort_key
from repro.relational.relation import Relation
from repro.relational.schema import ColumnSpec
from repro.relational.types import Dtype

__all__ = [
    "KeyTable",
    "Phase2Stats",
    "Phase2Result",
    "run_phase2",
    "partition_by_combo",
]


def partition_by_combo(
    assignment: ViewAssignment, r1: Relation
) -> Dict[tuple, np.ndarray]:
    """The Section-5.2 combo partitioning, chunk-aware.

    Every Phase-II strategy partitions the completed view the same way;
    when ``r1`` is disk-backed the assignment's code matrix is sorted one
    ``r1.chunk_rows``-sized block at a time (identical output, bounded
    working set).
    """
    return assignment.group_by_combo(
        chunk_rows=r1.chunk_rows if r1.is_chunked else None
    )


class KeyTable:
    """One edge's colors: R2's keys in row order, then minted keys.

    A color is a position in this table.  Minted keys never collide with
    taken ones: an INT key column counts up past its largest key, a STR
    one takes the first free ``synthetic_<n>`` from ``n`` = keys so far.
    A fresh-color pass takes one color per skipped vertex, but skipped
    vertices that do not conflict share the first; :meth:`release` takes
    the rest back and :meth:`take` serves them before minting anew, so
    the keys that materialise in ``R2̂`` stay dense.  :meth:`claim`
    materialises a minted color as a new R2 row of a combo.
    """

    def __init__(self, keys: np.ndarray, dtype: Dtype) -> None:
        self._r2 = keys
        self._numeric = dtype is Dtype.INT
        self._minted: List[object] = []
        self._unclaimed: List[int] = []
        self._next_int = 1
        if self._numeric and keys.size:
            self._next_int = int(keys.max()) + 1
        self._taken: Optional[Set[object]] = None
        #: ``(color, combo)`` of every claimed mint, in claim order.
        self.claimed: List[Tuple[int, tuple]] = []

    def key(self, color: int) -> object:
        """The key value of ``color``."""
        n = len(self._r2)
        return self._r2.item(color) if color < n else self._minted[color - n]

    def keys(self) -> np.ndarray:
        """Every key, indexed by color."""
        if not self._minted:
            return self._r2
        minted = np.asarray(self._minted, dtype=self._r2.dtype)
        return np.concatenate([self._r2, minted])

    def take(self, count: int) -> List[int]:
        """``count`` colors: released ones first, then fresh mints."""
        out = self._unclaimed[:count]
        del self._unclaimed[:count]
        while len(out) < count:
            out.append(self._mint())
        return out

    def release(self, colors: Sequence[int]) -> None:
        """Return unclaimed colors for a later :meth:`take`."""
        self._unclaimed.extend(colors)

    def claim(self, color: int, combo: tuple) -> None:
        """Materialise minted ``color`` as a new R2 row carrying ``combo``."""
        self.claimed.append((color, combo))

    def _mint(self) -> int:
        if self._numeric:
            key: object = self._next_int
            self._next_int += 1
        else:
            if self._taken is None:
                self._taken = set(self._r2.tolist())
            n = len(self._taken)
            while f"synthetic_{n}" in self._taken:
                n += 1
            key = f"synthetic_{n}"
            self._taken.add(key)
        self._minted.append(key)
        return len(self._r2) + len(self._minted) - 1


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
    cap_of: Optional[Callable[[tuple], Optional[KeyCap]]] = None,
) -> Phase2Result:
    """Complete ``R1.FK`` so every DC holds; possibly grow ``R2``.

    ``cap_of(combo)`` gives a combo partition's per-key cap (``None`` =
    uncapped).  When it is set, invalid tuples take the fresh-key escape
    hatch (one fresh key each, on a CC-safe combo) so no cap is breached,
    and the overflow a soft cap accepted is recorded per key.
    """
    stats = Phase2Stats()
    key_column = r2.schema.key
    key_dtype = r2.schema.dtype(key_column)
    r2_keys = r2.column(key_column)
    table = KeyTable(r2_keys, key_dtype)
    color = np.full(assignment.n, -1, dtype=np.int64)
    overflow: Dict[object, int] = {}

    def candidates_of(combo: tuple) -> List[int]:
        """The combo's R2 rows (= colors), ordered by key value."""
        rows = catalog.rows_by_combo.get(combo)
        if rows is None:
            raise ColoringError(
                f"no candidate keys for combo {combo!r}; Phase I "
                "assigned a combination absent from R2"
            )
        return rows[np.argsort(r2_keys[rows], kind="stable")].tolist()

    # Partition the completed rows by their full B-combo — one
    # lexsort-and-split over the assignment's code matrix (chunked when
    # R1 itself is).  The combo order fixes which minted key goes where.
    partitions = partition_by_combo(assignment, r1)
    for combo in sorted(partitions, key=tuple_sort_key):
        rows = partitions[combo]
        candidates = candidates_of(combo)
        cap = cap_of(combo) if cap_of is not None else None
        stats.num_partitions += 1
        if not dcs and cap is None:
            # No DCs ⇒ the conflict graph is empty and largest-first
            # gives every row the first candidate.
            started = time.perf_counter()
            color[rows] = candidates[0]
            stats.coloring_seconds += time.perf_counter() - started
            continue
        started = time.perf_counter()
        graph = build_conflict_graph(r1, dcs, rows)
        stats.edge_seconds += time.perf_counter() - started
        stats.num_edges += graph.num_edges

        started = time.perf_counter()
        part = np.full(len(rows), -1, dtype=np.int64)
        usage: Dict[int, int] = {}
        skipped = coloring_lf(graph, part, candidates, cap, usage)
        stats.num_skipped += len(skipped)
        # Algorithm 4's retry: skipped rows try fresh colors; the ones a
        # pass used become new R2 rows of this combo, the rest go back.
        guard = 0
        while skipped:
            guard += 1
            if guard > len(rows) + 1:
                raise ColoringError("fresh-color loop failed to make progress")
            fresh = table.take(len(skipped))
            retried = skipped
            skipped = coloring_lf(graph, part, fresh, cap, usage)
            taken = set(part[retried].tolist())
            for c in fresh:
                if c in taken:
                    table.claim(c, combo)
            table.release([c for c in fresh if c not in taken])
        stats.coloring_seconds += time.perf_counter() - started
        color[rows] = part
        if cap is not None:
            # A color serves one partition only (candidates are disjoint
            # across combos, fresh colors go to one pass), so its usage
            # here is its final count.
            for c, count in usage.items():
                if count > cap.max_per_key:
                    overflow[table.key(c)] = count - cap.max_per_key

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
            (c,) = table.take(1)
            table.claim(c, combo)
            color[row] = c
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
            color=color,
            table=table,
        )
    stats.invalid_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    # Materialise R1̂ and R2̂.
    # ------------------------------------------------------------------
    missing = int(np.count_nonzero(color < 0))
    if missing:
        raise ColoringError(f"{missing} rows ended up uncolored")
    r1_hat = r1.with_column(
        ColumnSpec(fk_column, key_dtype), table.keys()[color]
    )
    new_rows = []
    for c, combo in table.claimed:
        values = catalog.as_dict(combo)
        values[key_column] = table.key(c)
        new_rows.append(tuple(values[name] for name in r2.schema.names))
    r2_hat = r2.append_rows(new_rows)
    stats.num_new_r2_tuples = len(table.claimed)
    stats.total_overflow = sum(overflow.values())
    return Phase2Result(
        r1_hat=r1_hat,
        r2_hat=r2_hat,
        stats=stats,
        overflow=overflow,
    )
