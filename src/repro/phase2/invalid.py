"""``solveInvalidTuples`` (Algorithm 4, line 16).

Invalid tuples are view rows Phase I could not give B-values without
perturbing some CC.  They are colored last, against the *full* key list of
``R2̂`` (every materialised color of the edge's key table, by key value),
with conflict edges restricted to those incident to an invalid vertex.
A row that still cannot be colored gets the B-combination that minimises
the marginal CC error plus a fresh key (inserting a tuple into ``R2̂``).
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence, Set

import numpy as np

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.dc import DenialConstraint
from repro.phase1.assignment import ViewAssignment
from repro.phase1.combos import ComboCatalog
from repro.phase2.edges import conflicting_pairs
from repro.relational.relation import Relation

if TYPE_CHECKING:  # fk_assignment imports this module
    from repro.phase2.fk_assignment import KeyTable

__all__ = ["solve_invalid_tuples"]


def _conflict_lists(
    r1: Relation,
    dcs: Sequence[DenialConstraint],
    invalid_rows: List[int],
    all_rows: np.ndarray,
) -> Dict[int, Set[int]]:
    """For each invalid row: the rows it conflicts with under some DC.

    Only binary DCs contribute vectorised cross edges; higher-arity DCs
    fall back to treating every unary-candidate co-member as a potential
    conflict (conservative — may forbid more colors than strictly needed,
    never fewer).
    """
    conflicts: Dict[int, Set[int]] = {row: set() for row in invalid_rows}
    invalid_arr = np.asarray(sorted(invalid_rows), dtype=np.int64)
    invalid_set = set(invalid_rows)
    for dc in dcs:
        if dc.arity == 2:
            # Enumerate both role directions: an asymmetric DC (e.g.
            # ``not(t1.Spouse & t2.Owner)``) conflicts an invalid row
            # playing *either* tuple variable, but one cross call only
            # covers the invalid rows in role t1.  A role-symmetric DC
            # would yield the identical pair set twice — skip the echo.
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
            # Conservative fallback: any two rows that can play *some* role
            # in this DC are treated as conflicting.
            from repro.phase2.edges import _unary_mask

            candidates: Set[int] = set()
            for var in range(dc.arity):
                mask = _unary_mask(r1, all_rows, dc.unary_atoms(var))
                candidates.update(int(r) for r in all_rows[mask])
            for row in invalid_rows:
                if row in candidates:
                    conflicts[row].update(candidates - {row})
    return conflicts


def solve_invalid_tuples(
    r1: Relation,
    dcs: Sequence[DenialConstraint],
    ccs: Sequence[CardinalityConstraint],
    assignment: ViewAssignment,
    catalog: ComboCatalog,
    color: np.ndarray,
    table: "KeyTable",
) -> int:
    """Color every invalid row in ``color``; returns how many were handled."""
    invalid_rows = sorted(assignment.invalid)
    if not invalid_rows:
        return 0
    all_rows = np.arange(assignment.n, dtype=np.int64)
    conflicts = _conflict_lists(r1, dcs, invalid_rows, all_rows)

    # Every materialised color (R2's rows, then the claimed mints) with
    # its combo, and the colors ranked by key value.
    combo_of = {
        c: combo
        for combo, rows in catalog.rows_by_combo.items()
        for c in rows.tolist()
    }
    combo_of.update(table.claimed)
    ranked = sorted(combo_of, key=table.key)

    # Current CC counts over the completed rows (invalid rows excluded) so
    # fallback combos can chase under-target CCs first.  One mask pass per
    # CC over columnar data: R1 columns sliced to the assigned rows plus
    # the decoded B-columns from the assignment's code matrix.
    counts = [0] * len(ccs)
    if ccs:
        assigned = np.flatnonzero(assignment.assigned_mask())
        columns = {
            name: r1.column(name)[assigned] for name in r1.schema.names
        }
        columns.update(assignment.value_arrays(assigned))
        counts = [
            int(cc.mask(columns, len(assigned)).sum()) for cc in ccs
        ]

    handled = 0
    # Highest-conflict rows first (mirrors the largest-first heuristic).
    for row in sorted(invalid_rows, key=lambda r: (-len(conflicts[r]), r)):
        near = np.fromiter(conflicts[row], np.int64, len(conflicts[row]))
        forbidden = set(color[near].tolist())
        chosen = next((c for c in ranked if c not in forbidden), None)
        row_values = r1.row(row)
        if chosen is not None:
            combo = combo_of[chosen]
        else:
            combo = _min_error_combo(row_values, catalog, ccs, counts)
            (chosen,) = table.take(1)
            table.claim(chosen, combo)
            combo_of[chosen] = combo
            bisect.insort(ranked, chosen, key=table.key)
        color[row] = chosen
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
                # Moving toward an under-target CC reduces error.
                delta += 1 if counts[i] >= cc.target else -1
        if best_delta is None or delta < best_delta:
            best_delta = delta
            best_combo = combo
    return best_combo
