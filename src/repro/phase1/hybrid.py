"""The hybrid Phase-I approach (Section 4.3).

Pipeline:

1. classify every CC pair (disjoint / contained / intersecting);
2. build the containment Hasse forest and split the diagrams: those free of
   intersecting CCs go to Algorithm 2 (``S1``, exact), the rest to
   Algorithm 1 (``S2``, ILP with *modified marginals* limited to the bins
   the ``S2`` CCs can touch);
3. complete partial and untouched rows against ``combo_unused``
   (:func:`complete_leftovers`).  Rows fall into *decision classes* —
   equal bin components on the attributes the CCs' R1 parts constrain,
   equal partial assignment — and each class gets, from one class ×
   disjunct match matrix and one disjunct × combo matrix, the tied
   combos that add the fewest new CC contributions.  Rows then take
   their class's least-loaded candidate in ascending row order, from
   one lazy min-heap per distinct candidate list; rows with no usable
   combination become *invalid tuples* for Phase II's
   ``solveInvalidTuples``.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.hasse import HasseForest
from repro.constraints.intervalize import (
    Binning,
    build_binning,
    first_seen_groups,
    fuse_codes,
)
from repro.constraints.relationships import RelationshipTable
from repro.phase1.assignment import ViewAssignment
from repro.phase1.combos import ComboCatalog
from repro.phase1.hasse_completion import (
    HasseCompletionStats,
    complete_with_hasse,
)
from repro.phase1.ilp_completion import IlpCompletionStats, complete_with_ilp
from repro.relational.predicate import Predicate
from repro.relational.relation import Relation

__all__ = [
    "Phase1Stats",
    "Phase1Result",
    "complete_leftovers",
    "run_phase1",
]


@dataclass
class Phase1Stats:
    """Stage timings and routing counts for one Phase-I run.

    The four timing buckets mirror the paper's Figure 13 breakdown:
    pairwise comparison, recursion (Algorithm 2), ILP solver (Algorithm 1)
    and — in Phase II — coloring.
    """

    pairwise_seconds: float = 0.0
    recursion_seconds: float = 0.0
    ilp_seconds: float = 0.0
    completion_seconds: float = 0.0
    num_ccs: int = 0
    num_duplicates: int = 0
    num_s1: int = 0
    num_s2: int = 0
    invalid_rows: int = 0
    ilp: Optional[IlpCompletionStats] = None
    hasse: Optional[HasseCompletionStats] = None

    @property
    def total_seconds(self) -> float:
        return (
            self.pairwise_seconds
            + self.recursion_seconds
            + self.ilp_seconds
            + self.completion_seconds
        )


@dataclass
class Phase1Result:
    """The completed (possibly partially) view assignment."""

    assignment: ViewAssignment
    catalog: ComboCatalog
    binning: Binning
    stats: Phase1Stats
    s1_indices: List[int] = field(default_factory=list)
    s2_indices: List[int] = field(default_factory=list)


def _dedupe(
    ccs: Sequence[CardinalityConstraint],
) -> Tuple[List[CardinalityConstraint], int]:
    """Drop CCs with identical predicate *and* target (trivial duplicates)."""
    seen: Set[Tuple[object, int]] = set()
    unique: List[CardinalityConstraint] = []
    duplicates = 0
    for cc in ccs:
        key = (cc.disjuncts, cc.target)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        unique.append(cc)
    return unique, duplicates


def run_phase1(
    r1: Relation,
    r2: Relation,
    ccs: Sequence[CardinalityConstraint],
    *,
    r1_attrs: Optional[Sequence[str]] = None,
    marginals: str = "relevant",
    soft_ccs: bool = True,
    force_ilp: bool = False,
    time_limit: Optional[float] = None,
    mip_gap: Optional[float] = None,
) -> Phase1Result:
    """Run the hybrid Phase I and return the view assignment.

    ``force_ilp=True`` routes *every* CC to Algorithm 1 (used by ablations
    and by the baselines together with ``marginals="all"``/``"none"``).
    """
    if r1_attrs is None:
        r1_attrs = list(r1.schema.nonkey_names)
    catalog = ComboCatalog.from_relation(r2)
    assignment = ViewAssignment(n=len(r1), r2_attrs=catalog.attrs)
    stats = Phase1Stats(num_ccs=len(ccs))

    unique_ccs, stats.num_duplicates = _dedupe(ccs)
    binning = build_binning(r1, r1_attrs, unique_ccs)

    # ------------------------------------------------------------------
    # 1. Pairwise classification and the S1/S2 split.
    # ------------------------------------------------------------------
    started = time.perf_counter()
    r1_attr_set = set(r1_attrs)
    r2_attr_set = set(catalog.attrs)
    table = RelationshipTable.build(unique_ccs, r1_attr_set, r2_attr_set)
    # Disjunctive CCs always take the ILP path — Algorithm 2's selection
    # and assignment steps are defined for conjunctive conditions only.
    conjunctive_indices = [
        i for i, cc in enumerate(unique_ccs) if cc.is_conjunctive
    ]
    disjunctive_indices = [
        i for i, cc in enumerate(unique_ccs) if not cc.is_conjunctive
    ]
    forest = HasseForest.build(table, conjunctive_indices)
    s1_indices: List[int] = []
    s2_indices: List[int] = list(disjunctive_indices)
    s1_diagrams = []
    for diagram in forest.diagrams:
        if force_ilp or any(
            node in table.intersecting_indices for node in diagram.nodes
        ):
            s2_indices.extend(diagram.nodes)
        else:
            s1_indices.extend(diagram.nodes)
            s1_diagrams.append(diagram)
    stats.pairwise_seconds = time.perf_counter() - started
    stats.num_s1 = len(s1_indices)
    stats.num_s2 = len(s2_indices)

    # ------------------------------------------------------------------
    # 2a. Algorithm 2 on the intersection-free diagrams.
    # ------------------------------------------------------------------
    if s1_diagrams:
        s1_forest = HasseForest(diagrams=s1_diagrams, table=table)
        stats.hasse = complete_with_hasse(
            r1, r1_attrs, catalog, unique_ccs, s1_forest, assignment
        )
        stats.recursion_seconds = stats.hasse.recursion_seconds

    # ------------------------------------------------------------------
    # 2b. Algorithm 1 on the rest.
    # ------------------------------------------------------------------
    if s2_indices:
        started = time.perf_counter()
        s2_ccs = [unique_ccs[i] for i in sorted(s2_indices)]
        stats.ilp = complete_with_ilp(
            r1,
            r1_attrs,
            catalog,
            s2_ccs,
            assignment,
            marginals=marginals,
            soft_ccs=soft_ccs,
            time_limit=time_limit,
            mip_gap=mip_gap,
        )
        stats.ilp_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    # 3. Complete partial and untouched rows (combo_unused).
    # ------------------------------------------------------------------
    started = time.perf_counter()
    complete_leftovers(r1, r1_attrs, catalog, unique_ccs, binning, assignment)
    stats.completion_seconds = time.perf_counter() - started
    stats.invalid_rows = len(assignment.invalid)

    return Phase1Result(
        assignment=assignment,
        catalog=catalog,
        binning=binning,
        stats=stats,
        s1_indices=sorted(s1_indices),
        s2_indices=sorted(s2_indices),
    )


#: Cells of the (decision classes × combos) damage array, and of the
#: (classes × disjuncts) arrays behind it, scored at once.
_DAMAGE_BLOCK_CELLS = 1 << 20


def complete_leftovers(
    r1: Relation,
    r1_attrs: Sequence[str],
    catalog: ComboCatalog,
    ccs: Sequence[CardinalityConstraint],
    binning: Binning,
    assignment: ViewAssignment,
) -> None:
    """Finish partial rows and place untouched rows on unused combos.

    Every pending row belongs to a *decision class*: the rows sharing
    their bin components on the attributes some CC's R1 part constrains
    (``bin_matches`` ignores every other attribute) and their partial
    assignment.  Each class gets the tied least-damaging combos as its
    candidate list; a row with no candidates becomes an invalid tuple.
    Rows then take, in ascending row order, the candidate with the
    lowest ``(load + 1) / max(1, capacity)`` — spreading free rows
    across equally-safe combos in proportion to how many R2 keys carry
    each combo keeps Phase II from minting fresh keys for overloaded
    combos.
    """
    combos = catalog.combos
    pending = np.flatnonzero(~assignment.complete_mask())
    if not combos:
        assignment.mark_invalid_rows(pending)
        return
    if pending.size == 0:
        return

    # One column per disjunct of every CC: its R1 part, R2 part and CC.
    r1_attr_set = set(r1_attrs)
    r2_attr_set = set(catalog.attrs)
    r1_parts: List[Predicate] = []
    r2_parts: List[Predicate] = []
    disjunct_cc: List[int] = []
    for i, cc in enumerate(ccs):
        for r1_part, r2_part in cc.split_disjuncts(r1_attr_set, r2_attr_set):
            r1_parts.append(r1_part)
            r2_parts.append(r2_part)
            disjunct_cc.append(i)
    num_disjuncts = len(r1_parts)
    combo_values = [catalog.as_dict(combo) for combo in combos]
    # Disjunct × combo: does the combo satisfy the disjunct's R2 part?
    combo_match = np.zeros((num_disjuncts, len(combos)), dtype=bool)
    for d, r2_part in enumerate(r2_parts):
        combo_match[d] = [r2_part.matches_row(v) for v in combo_values]
    trivial_r2 = np.asarray([p.is_trivial for p in r2_parts], dtype=bool)

    # ------------------------------------------------------------------
    # Decision classes: the partial assignment, then the bin component
    # of every constrained attribute (every intervalized one among them).
    # ------------------------------------------------------------------
    # Shifted so an unset cell (-1) becomes code 0.
    signatures = assignment.code_rows(pending).astype(np.int64) + 1
    partial_of, _ = fuse_codes(
        [(column, int(column.max()) + 1) for column in signatures.T],
        pending.size,
    )
    keyed = [
        attr
        for attr in binning.attrs
        if any(part.condition(attr) is not None for part in r1_parts)
    ]
    attr_codes = [binning.key_codes(r1, attr, pending) for attr in keyed]
    class_of, num_classes = fuse_codes(
        [(partial_of, int(partial_of.max()) + 1)] + attr_codes, pending.size
    )
    _, first = np.unique(class_of, return_index=True)

    # Class × disjunct: does the class's bin satisfy the disjunct's R1
    # part?  Each (attribute, component, disjunct) is evaluated once,
    # with the very calls ``Binning.bin_matches`` makes.
    bin_match = np.ones((num_classes, num_disjuncts), dtype=bool)
    for attr, (codes, _) in zip(keyed, attr_codes):
        conds = [
            (d, cond)
            for d, part in enumerate(r1_parts)
            if (cond := part.condition(attr)) is not None
        ]
        present, local = np.unique(codes[first], return_inverse=True)
        match = np.ones((len(present), num_disjuncts), dtype=bool)
        if binning.is_numeric(attr):
            intervals = [binning.interval(attr, int(k)) for k in present]
            for d, cond in conds:
                match[:, d] = [iv.is_subset_of(cond) for iv in intervals]
        else:
            values = list(r1.codes(attr)[1][present])
            for d, cond in conds:
                match[:, d] = [cond.matches(v) for v in values]
        bin_match &= match[local.reshape(-1)]

    # Per partial assignment: the combos consistent with it.
    _, partial_first = np.unique(partial_of, return_index=True)
    num_set = (signatures[partial_first] > 0).sum(axis=1)
    consistent = np.ones((len(partial_first), len(combos)), dtype=bool)
    for s, pos in enumerate(partial_first.tolist()):
        if num_set[s] > 0:
            partial = assignment.values(int(pending[pos]))
            consistent[s] = [
                all(values.get(a) == v for a, v in partial.items())
                for values in combo_values
            ]

    # Damage of a combo for a class: the CCs it would newly satisfy.  A
    # CC with a bin-matching disjunct whose R2 part is trivial counts
    # whatever the combo, so it is guaranteed and adds nothing.  (One
    # whose R2 part the partial already pins and satisfies adds one to
    # every consistent combo alike, so it cannot change a decision.)
    class_partial = partial_of[first]
    cc_ids = np.asarray(disjunct_cc, dtype=np.int64)
    by_cc = np.zeros((num_disjuncts, len(ccs)))
    by_cc[np.arange(num_disjuncts), cc_ids] = 1.0
    satisfies = combo_match.astype(np.float64)
    disjunct_counts = np.bincount(cc_ids, minlength=len(ccs))
    conjunctive = disjunct_counts[cc_ids] == 1
    disjunctive = [
        np.flatnonzero(cc_ids == i)
        for i in np.flatnonzero(disjunct_counts > 1)
    ]

    # Candidate lists: the tied least-damaging consistent combos.  An
    # untouched row (no attribute set) with no damage-free combo gets
    # none and becomes invalid.
    list_ids: Dict[bytes, int] = {}
    candidates: List[List[int]] = []
    class_list = np.full(num_classes, -1, dtype=np.int64)
    block = max(1, _DAMAGE_BLOCK_CELLS // max(len(combos), num_disjuncts))
    for lo in range(0, num_classes, block):
        rows = slice(lo, lo + block)
        matched = bin_match[rows]
        guaranteed = ((matched & trivial_r2) @ by_cc) > 0
        exposed = (matched & ~guaranteed[:, cc_ids]).astype(np.float64)
        hits = exposed[:, conjunctive] @ satisfies[conjunctive]
        for cols in disjunctive:
            hits += np.minimum(exposed[:, cols] @ satisfies[cols], 1.0)
        damage = hits.astype(np.int64)
        allowed = consistent[class_partial[rows]]
        best = np.where(allowed, damage, np.iinfo(np.int64).max).min(axis=1)
        tied = allowed & (damage == best[:, None])
        usable = allowed.any(axis=1) & (
            (num_set[class_partial[rows]] > 0) | (best == 0)
        )
        packed = np.packbits(tied, axis=1)
        for g in np.flatnonzero(usable).tolist():
            key = packed[g].tobytes()
            list_id = list_ids.get(key)
            if list_id is None:
                list_id = list_ids[key] = len(candidates)
                candidates.append(np.flatnonzero(tied[g]).tolist())
            class_list[lo + g] = list_id
    row_list = class_list[class_of]
    assignment.mark_invalid_rows(pending[row_list < 0])

    capacity = [
        max(1, len(catalog.keys_by_combo.get(combo, ()))) for combo in combos
    ]
    placed = np.flatnonzero(row_list >= 0)
    picks = _balance(row_list[placed].tolist(), candidates, capacity)

    # Commit combo by combo, in first-use order (it fixes the value
    # codes, and so Phase II's partition order).
    placed_rows = pending[placed]
    for positions in first_seen_groups(
        np.asarray(picks, dtype=np.int64), len(combos)
    ):
        combo = combos[picks[positions[0]]]
        assignment.assign_rows(placed_rows[positions], catalog.as_dict(combo))


def _balance(
    row_lists: Sequence[int],
    candidates: Sequence[Sequence[int]],
    capacity: Sequence[int],
) -> List[int]:
    """The combo each row takes; ``row_lists[i]`` is row ``i``'s list.

    Rows go in order.  A row takes its list's candidate with the lowest
    ``(load + 1) / capacity``, the lowest combo on ties, exactly as a
    ``min`` scan over the ascending list would.  One lazy min-heap per
    list holds one ``(key, combo, load_at_push)`` entry per candidate.
    Loads only grow, so a stale entry's key is never above its true key:
    re-keying stale tops until the top is fresh leaves the scan's pick
    on top.  The float expression is the scan's, so float-rounding ties
    break the same way.
    """
    load = [0] * len(capacity)
    heaps = [[(1 / capacity[c], c, 0) for c in cands] for cands in candidates]
    for heap in heaps:
        heapq.heapify(heap)
    picks = []
    for list_id in row_lists:
        heap = heaps[list_id]
        _, c, seen = heap[0]
        while seen != load[c]:
            heapq.heapreplace(heap, ((load[c] + 1) / capacity[c], c, load[c]))
            _, c, seen = heap[0]
        load[c] += 1
        heapq.heapreplace(heap, ((load[c] + 1) / capacity[c], c, load[c]))
        picks.append(c)
    return picks
