"""Reference Phase II: the per-row ``run_phase2`` that array coloring replaced.

This is the dict-based implementation of Algorithm 4, kept as an
independent oracle for :func:`repro.phase2.fk_assignment.run_phase2`:
colors are R2 key values, the coloring is a ``Dict[row, key]``, fresh
keys come from :class:`FreshKeyFactory` through :class:`MintPool`, and
``R1̂.FK`` is built from one Python list.  Partitions come from a
per-row ``setdefault`` loop, each partition's conflict graph from
:func:`conflict_reference.reference_graph`, and its coloring from the
matching reference loop, so the oracle never runs the production
graph, coloring or grouping.  ``tests/phase2/test_phase2_oracle.py``
holds the production ``run_phase2`` to exactly this behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set

import numpy as np
from conflict_reference import (
    reference_capacity_coloring,
    reference_coloring_lf,
    reference_graph,
    reference_soft_capacity_coloring,
)

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.dc import DenialConstraint
from repro.errors import ColoringError
from repro.phase1.assignment import ViewAssignment
from repro.phase1.combos import ComboCatalog
from repro.phase2.coloring import KeyCap
from repro.phase2.edges import _unary_mask, conflicting_pairs
from repro.relational.ordering import sort_key, tuple_sort_key
from repro.relational.relation import Relation
from repro.relational.schema import ColumnSpec
from repro.relational.types import Dtype


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
    """Hands out fresh keys, reusing mints an earlier pass never claimed."""

    def __init__(self, factory: FreshKeyFactory) -> None:
        self._factory = factory
        self._unclaimed: List[object] = []

    def take(self, count: int) -> List[object]:
        out = self._unclaimed[:count]
        del self._unclaimed[:count]
        while len(out) < count:
            out.append(self._factory.mint())
        return out

    def mint(self) -> object:
        return self.take(1)[0]

    def release(self, keys: Sequence[object]) -> None:
        self._unclaimed.extend(keys)


@dataclass
class ReferenceStats:
    num_partitions: int = 0
    num_edges: int = 0
    num_skipped: int = 0
    num_new_r2_tuples: int = 0
    num_invalid_handled: int = 0
    total_overflow: int = 0


@dataclass
class ReferenceResult:
    r1_hat: Relation
    r2_hat: Relation
    coloring: Dict[int, object]
    stats: ReferenceStats
    overflow: Dict[object, int] = field(default_factory=dict)


def reference_partitions(
    assignment: ViewAssignment,
) -> Dict[tuple, List[int]]:
    """Complete, valid rows by full B-combo, one row at a time."""
    out: Dict[tuple, List[int]] = {}
    for row in range(assignment.n):
        if row in assignment.invalid or not assignment.is_complete(row):
            continue
        out.setdefault(assignment.combo(row), []).append(row)
    return out


def _coloring(graph, coloring, candidates, cap, usage):
    """The reference loop a :class:`KeyCap` (or none) stands for."""
    if cap is None:
        return reference_coloring_lf(graph, coloring, candidates)
    if math.isinf(cap.penalty):
        return reference_capacity_coloring(
            graph, candidates, cap.max_per_key, coloring, usage
        )
    return reference_soft_capacity_coloring(
        graph,
        candidates,
        cap.max_per_key,
        cap.penalty,
        cap.new_tuple_cost,
        coloring,
        usage,
    )


def reference_run_phase2(
    r1: Relation,
    r2: Relation,
    dcs: Sequence[DenialConstraint],
    assignment: ViewAssignment,
    catalog: ComboCatalog,
    fk_column: str,
    ccs: Sequence[CardinalityConstraint] = (),
    cap_of: Optional[Callable[[tuple], Optional[KeyCap]]] = None,
) -> ReferenceResult:
    """Algorithm 4 over dict colorings keyed by row, colored with keys."""
    stats = ReferenceStats()
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

    partitions = reference_partitions(assignment)
    combos = sorted(partitions, key=tuple_sort_key)
    jobs = [(partitions[c], c, candidates_of(c)) for c in combos]

    for rows, combo, candidates in jobs:
        cap = cap_of(combo) if cap_of is not None else None
        if not dcs and cap is None:
            coloring.update(dict.fromkeys(rows, candidates[0]))
            stats.num_partitions += 1
            continue
        graph = reference_graph(r1, dcs, rows)
        stats.num_edges += graph.num_edges
        stats.num_partitions += 1

        usage: Dict[object, int] = {}
        part, skipped = _coloring(graph, {}, candidates, cap, usage)
        stats.num_skipped += len(skipped)
        guard = 0
        while skipped:
            guard += 1
            if guard > len(rows) + 1:
                raise ColoringError("fresh-color loop failed to make progress")
            fresh = pool.take(len(skipped))
            retried = skipped
            part, skipped = _coloring(graph, part, fresh, cap, usage)
            taker = {part[row]: row for row in retried if row in part}
            for key in fresh:
                if key in taker:
                    record_new_key(key, combo)
            pool.release([key for key in fresh if key not in taker])
        coloring.update(part)
        if cap is not None:
            for key, count in usage.items():
                if count > cap.max_per_key:
                    overflow[key] = count - cap.max_per_key

    if cap_of is not None:
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
        stats.num_invalid_handled = reference_solve_invalid_tuples(
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

    if len(coloring) < assignment.n:
        missing = assignment.n - len(coloring)
        raise ColoringError(f"{missing} rows ended up uncolored")
    fk_values = [coloring[row] for row in range(assignment.n)]
    r1_hat = r1.with_column(ColumnSpec(fk_column, key_dtype), fk_values)
    r2_hat = r2.append_rows(new_r2_rows)
    stats.total_overflow = sum(overflow.values())
    return ReferenceResult(
        r1_hat=r1_hat,
        r2_hat=r2_hat,
        coloring=coloring,
        stats=stats,
        overflow=overflow,
    )


# ----------------------------------------------------------------------
# solveInvalidTuples (Algorithm 4, line 16)
# ----------------------------------------------------------------------

def _conflict_lists(
    r1: Relation,
    dcs: Sequence[DenialConstraint],
    invalid_rows: List[int],
    all_rows: np.ndarray,
) -> Dict[int, Set[int]]:
    """For each invalid row: the rows it conflicts with under some DC."""
    conflicts: Dict[int, Set[int]] = {row: set() for row in invalid_rows}
    invalid_arr = np.asarray(sorted(invalid_rows), dtype=np.int64)
    invalid_set = set(invalid_rows)
    for dc in dcs:
        if dc.arity == 2:
            symmetric = not dc.binary_atoms and (
                {(a.attr, a.op, a.value) for a in dc.unary_atoms(0)}
                == {(a.attr, a.op, a.value) for a in dc.unary_atoms(1)}
            )
            pairs = set(conflicting_pairs(r1, dc, invalid_arr, all_rows))
            if not symmetric:
                pairs.update(conflicting_pairs(r1, dc, all_rows, invalid_arr))
            for u, v in sorted(pairs):
                if u in invalid_set:
                    conflicts[u].add(v)
                if v in invalid_set:
                    conflicts[v].add(u)
        else:
            candidates: Set[int] = set()
            for var in range(dc.arity):
                mask = _unary_mask(r1, all_rows, dc.unary_atoms(var))
                candidates.update(int(r) for r in all_rows[mask])
            for row in invalid_rows:
                if row in candidates:
                    conflicts[row].update(candidates - {row})
    return conflicts


def reference_solve_invalid_tuples(
    r1: Relation,
    dcs: Sequence[DenialConstraint],
    ccs: Sequence[CardinalityConstraint],
    assignment: ViewAssignment,
    catalog: ComboCatalog,
    coloring: Dict[int, object],
    keys_by_combo: Dict[tuple, List[object]],
    factory,
    record_new_key: Callable[[object, tuple], None],
) -> int:
    """Color every invalid row; returns how many were handled."""
    invalid_rows = sorted(assignment.invalid)
    if not invalid_rows:
        return 0
    all_rows = np.arange(assignment.n, dtype=np.int64)
    conflicts = _conflict_lists(r1, dcs, invalid_rows, all_rows)

    combo_of_key = {
        key: combo for combo, keys in keys_by_combo.items() for key in keys
    }

    counts = [0] * len(ccs)
    if ccs:
        assigned = np.flatnonzero(assignment.assigned_mask())
        columns = {
            name: r1.column(name)[assigned] for name in r1.schema.names
        }
        columns.update(assignment.value_arrays(assigned))
        counts = [int(cc.mask(columns, len(assigned)).sum()) for cc in ccs]

    handled = 0
    for row in sorted(invalid_rows, key=lambda r: (-len(conflicts[r]), r)):
        forbidden = {coloring[u] for u in conflicts[row] if u in coloring}
        chosen_key = None
        for key in sorted(combo_of_key.keys(), key=sort_key):
            if key not in forbidden:
                chosen_key = key
                break
        row_values = r1.row(row)
        if chosen_key is not None:
            combo = combo_of_key[chosen_key]
        else:
            combo = _min_error_combo(row_values, catalog, ccs, counts)
            chosen_key = factory.mint()
            record_new_key(chosen_key, combo)
            combo_of_key[chosen_key] = combo
        coloring[row] = chosen_key
        assignment.assign(row, catalog.as_dict(combo))
        assignment.invalid.discard(row)
        if ccs:
            merged = dict(row_values)
            merged.update(catalog.as_dict(combo))
            for i, cc in enumerate(ccs):
                if cc.matches_row(merged):
                    counts[i] += 1
        handled += 1
    return handled


def _min_error_combo(
    row_values: Mapping[str, object],
    catalog: ComboCatalog,
    ccs: Sequence[CardinalityConstraint],
    counts: List[int],
) -> tuple:
    """The combo whose adoption changes CC error the least."""
    if not catalog.combos:
        raise ValueError("R2 has no value combinations at all")
    best_combo = catalog.combos[0]
    best_delta = None
    for combo in catalog.combos:
        merged = dict(row_values)
        merged.update(catalog.as_dict(combo))
        delta = 0
        for i, cc in enumerate(ccs):
            if cc.matches_row(merged):
                delta += 1 if counts[i] >= cc.target else -1
        if best_delta is None or delta < best_delta:
            best_delta = delta
            best_combo = combo
    return best_combo
