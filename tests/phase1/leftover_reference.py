"""Reference leftover completion: the per-row loops it replaced.

This is the per-row implementation of Phase I's last stage, kept as an
independent oracle for :func:`repro.phase1.hybrid.complete_leftovers`:
one cached ``_choose_combo`` decision per (full bin key, partial
assignment), ``bin_matches`` per bin and disjunct, and a ``min`` scan
over the candidate list for every row.  :func:`reference_bin_members`
is the per-row ``setdefault`` loop behind ``Binning.bin_members``.
``tests/phase1/test_leftover_equivalence.py`` holds the production code
to exactly this behaviour.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.intervalize import Binning
from repro.phase1.assignment import ViewAssignment
from repro.phase1.combos import ComboCatalog
from repro.relational.relation import Relation


def reference_bin_members(
    binning: Binning,
    relation: Relation,
    indices: Optional[np.ndarray] = None,
) -> Dict[tuple, List[int]]:
    """Row indices (into the original relation) per bin."""
    if indices is None:
        indices = np.arange(len(relation), dtype=np.int64)
    members: Dict[tuple, List[int]] = {}
    arrays = binning.key_arrays(relation, indices)
    for pos, row_idx in enumerate(indices):
        key = tuple(arr[pos] for arr in arrays)
        members.setdefault(key, []).append(int(row_idx))
    return members


def reference_complete_leftovers(
    r1: Relation,
    r1_attrs: Sequence[str],
    catalog: ComboCatalog,
    ccs: Sequence[CardinalityConstraint],
    binning: Binning,
    assignment: ViewAssignment,
) -> None:
    """Finish partial rows and place untouched rows on unused combos.

    Decisions are cached per (bin, partial-assignment) because every row in
    an intervalized bin satisfies exactly the same CC R1-conditions.
    """
    combos = catalog.combos
    if not combos:
        assignment.mark_invalid_rows(
            np.flatnonzero(~assignment.complete_mask())
        )
        return

    num_combos = len(combos)
    r1_attr_set = set(r1_attrs)
    r2_attr_set = set(catalog.attrs)

    # Per CC, per disjunct: (r1_part, r2_part, combo-match vector).
    cc_splits: List[List[Tuple]] = []
    for cc in ccs:
        split = []
        for r1_part, r2_part in cc.split_disjuncts(r1_attr_set, r2_attr_set):
            combo_match = np.asarray(
                [
                    r2_part.matches_row(catalog.as_dict(combo))
                    for combo in combos
                ],
                dtype=bool,
            )
            split.append((r1_part, r2_part, combo_match))
        cc_splits.append(split)

    bin_cc_cache: Dict[tuple, List[np.ndarray]] = {}

    def bin_cc_match(key: tuple) -> List[np.ndarray]:
        """Per CC: boolean array over its disjuncts — does the bin match
        that disjunct's R1 condition?"""
        cached = bin_cc_cache.get(key)
        if cached is None:
            cached = [
                np.asarray(
                    [
                        binning.bin_matches(key, r1_part)
                        for r1_part, _, __ in split
                    ],
                    dtype=bool,
                )
                for split in cc_splits
            ]
            bin_cc_cache[key] = cached
        return cached

    pending = np.flatnonzero(~assignment.complete_mask())
    if pending.size == 0:
        return
    keys = binning.bin_keys(r1, pending)
    # Per-row partial-assignment signatures straight off the code matrix:
    # equal code vectors ⇔ equal partial assignments, so the signature
    # bytes replace the old `tuple(sorted(partial.items()))` cache key
    # without materialising a dict per row.
    signatures = assignment.code_rows(pending)
    num_set = (signatures >= 0).sum(axis=1)

    decision_cache: Dict[tuple, Tuple[List[int], bool]] = {}
    # Load balancing: spreading the free rows across equally-safe combos in
    # proportion to how many R2 keys carry each combo keeps Phase II from
    # having to mint fresh keys for overloaded combos.
    key_capacity = {
        c: len(catalog.keys_by_combo.get(combo, ()))
        for c, combo in enumerate(combos)
    }
    load = {c: 0 for c in range(num_combos)}
    chosen_rows: Dict[int, List[int]] = {}

    for pos, (row, key) in enumerate(zip(pending.tolist(), keys)):
        cache_key = (key, signatures[pos].tobytes())
        decision = decision_cache.get(cache_key)
        if decision is None:
            partial = assignment.values(row) or {}
            decision = reference_choose_combo(
                partial,
                catalog,
                cc_splits,
                bin_cc_match(key),
                num_combos,
                untouched=num_set[pos] == 0,
            )
            decision_cache[cache_key] = decision
        candidates, clean = decision
        if not candidates:
            assignment.mark_invalid(row)
            continue
        combo_index = min(
            candidates,
            key=lambda c: (load[c] + 1) / max(1, key_capacity[c]),
        )
        load[combo_index] += 1
        chosen_rows.setdefault(combo_index, []).append(row)
        # When `clean` is False the best available combos still add a CC
        # contribution; the row stays valid (it has concrete B values) but
        # contributes CC error, exactly like the paper's non-exact cases.

    # Commit the decisions combo-by-combo in bulk vector writes.
    for combo_index, rows in chosen_rows.items():
        assignment.assign_rows(rows, catalog.as_dict(combos[combo_index]))


def reference_choose_combo(
    partial: Dict[str, object],
    catalog: ComboCatalog,
    cc_splits: List[List[Tuple]],
    bin_match: List[np.ndarray],
    num_combos: int,
    untouched: bool,
) -> Tuple[List[int], bool]:
    """Find the least-damaging combos for one (bin, partial) class.

    Returns ``(tied_best_combo_indices, clean)``; ``clean`` means those
    choices add no new CC contribution.  Untouched rows with no clean
    choice return ``([], False)`` — they become invalid tuples.
    """
    candidates = [
        c
        for c, combo in enumerate(catalog.combos)
        if all(catalog.as_dict(combo).get(a) == v for a, v in partial.items())
    ]
    if not candidates:
        return [], False

    partial_keys = set(partial)
    damage = np.zeros(num_combos, dtype=np.int64)
    for split, disjunct_bin_match in zip(cc_splits, bin_match):
        if not disjunct_bin_match.any():
            continue  # no disjunct matches this bin on the R1 side
        # Already guaranteed: some bin-matching disjunct's R2 condition is
        # fully pinned (and satisfied) by the partial assignment alone.
        # Unavoidable: some bin-matching disjunct has no R2 condition at
        # all — the combo choice cannot change the contribution.
        guaranteed = False
        satisfied = np.zeros(num_combos, dtype=bool)
        for matches_bin, (r1_part, r2_part, combo_match) in zip(
            disjunct_bin_match, split
        ):
            if not matches_bin:
                continue
            if r2_part.is_trivial or (
                r2_part.attributes <= partial_keys
                and r2_part.matches_row(partial)
            ):
                guaranteed = True
                break
            satisfied |= combo_match
        if not guaranteed:
            damage += satisfied

    candidate_damage = damage[candidates]
    best_damage = int(candidate_damage.min())
    if untouched and best_damage > 0:
        return [], False
    tied = [
        c for c, d in zip(candidates, candidate_damage) if d == best_damage
    ]
    return tied, best_damage == 0

