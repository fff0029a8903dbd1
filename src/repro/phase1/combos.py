"""The catalog of R2 value combinations ("combos").

A *combo* is one distinct row of R2's non-key columns ``(B1..Bq)``.  Combos
are the values Phase I writes into ``V_join`` and — via the keys that carry
them — the candidate-color lists of Phase II.  The catalog answers:

* which combos match a CC's R2-side condition,
* which combos are consistent with a partial assignment,
* which combos are *unused* by a CC set (``combo_unused`` of Algorithm 2),
  either globally or for a specific R1 row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.constraints.cc import CardinalityConstraint
from repro.relational.ordering import tuple_sort_key
from repro.relational.predicate import Predicate
from repro.relational.relation import Relation

__all__ = ["ComboCatalog"]


@dataclass
class ComboCatalog:
    """Distinct ``(B1..Bq)`` rows of R2 and the keys that carry them."""

    attrs: Tuple[str, ...]
    combos: List[tuple]
    keys_by_combo: Dict[tuple, List[object]]
    #: The ascending R2 row indices that carry each combo.
    rows_by_combo: Dict[tuple, np.ndarray]

    @classmethod
    def from_relation(cls, r2: Relation) -> "ComboCatalog":
        key_col = r2.schema.key
        attrs = tuple(n for n in r2.schema.names if n != key_col)
        key_values = r2.column(key_col)
        # Vectorised group-by; indices are ascending, so key lists keep
        # R2 row order exactly like the per-row loop did.
        rows_by_combo = r2.group_indices(list(attrs))
        keys_by_combo: Dict[tuple, List[object]] = {
            combo: key_values[indices].tolist()
            for combo, indices in rows_by_combo.items()
        }
        combos = sorted(keys_by_combo.keys(), key=tuple_sort_key)
        return cls(attrs, combos, keys_by_combo, rows_by_combo)

    # ------------------------------------------------------------------
    def as_dict(self, combo: tuple) -> Dict[str, object]:
        return dict(zip(self.attrs, combo))

    def matching(self, r2_predicate: Predicate) -> List[tuple]:
        """Combos whose values satisfy an R2-side predicate."""
        return [
            combo
            for combo in self.combos
            if r2_predicate.matches_row(self.as_dict(combo))
        ]

    def consistent(self, partial: Mapping[str, object]) -> List[tuple]:
        """Combos that agree with a partial assignment."""
        out = []
        for combo in self.combos:
            values = self.as_dict(combo)
            if all(values[a] == v for a, v in partial.items()):
                out.append(combo)
        return out

    # ------------------------------------------------------------------
    # combo_unused (Algorithm 2, line 14)
    # ------------------------------------------------------------------
    def globally_unused(
        self, ccs: Sequence[CardinalityConstraint]
    ) -> List[tuple]:
        """Combos that match no CC's R2-side condition.

        Completing any tuple with such a combo cannot contribute to a CC
        that constrains R2 attributes at all.  Disjunctive CCs are checked
        disjunct by disjunct.
        """
        r2_attr_set = set(self.attrs)
        out = []
        for combo in self.combos:
            values = self.as_dict(combo)
            used = False
            for cc in ccs:
                for _, r2_part in cc.split_disjuncts(set(), r2_attr_set):
                    if r2_part.is_trivial:
                        continue  # combo choice cannot affect this disjunct
                    if r2_part.matches_row(values):
                        used = True
                        break
                if used:
                    break
            if not used:
                out.append(combo)
        return out

    def unused_for_row(
        self,
        r1_values: Mapping[str, object],
        ccs: Sequence[CardinalityConstraint],
        candidates: Optional[Sequence[tuple]] = None,
    ) -> List[tuple]:
        """Combos that do not complete *this* row into satisfying any CC.

        Sharper than :meth:`globally_unused`: a combo used by some CC is
        still safe for a row whose R1 values fail that CC's R1 condition.
        """
        pool = self.combos if candidates is None else candidates
        out = []
        for combo in pool:
            merged = dict(r1_values)
            merged.update(self.as_dict(combo))
            if not any(cc.matches_row(merged) for cc in ccs):
                out.append(combo)
        return out

    def satisfied_ccs(
        self,
        r1_values: Mapping[str, object],
        combo: tuple,
        ccs: Sequence[CardinalityConstraint],
    ) -> List[int]:
        """Indices of CCs the completed row would satisfy."""
        merged = dict(r1_values)
        merged.update(self.as_dict(combo))
        return [
            i for i, cc in enumerate(ccs) if cc.matches_row(merged)
        ]
