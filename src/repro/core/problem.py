"""The C-Extension problem object and a brute-force decision oracle.

:class:`CExtensionProblem` bundles one instance (Definition 2.6).  The
exact :func:`brute_force_decision` oracle enumerates every FK assignment —
exponential, strictly for tests: it lets property-based tests compare the
heuristic pipeline against ground truth on tiny instances, and it realises
the decision version used in the NP-hardness reduction (Proposition 2.8).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.constraints.cc import CardinalityConstraint, count_ccs
from repro.constraints.dc import DenialConstraint
from repro.errors import ConstraintError
from repro.relational import join
from repro.relational.relation import Relation
from repro.relational.schema import ColumnSpec

__all__ = ["CExtensionProblem", "brute_force_decision"]


@dataclass
class CExtensionProblem:
    """One C-Extension instance."""

    r1: Relation
    r2: Relation
    fk_column: str
    ccs: Sequence[CardinalityConstraint] = field(default_factory=tuple)
    dcs: Sequence[DenialConstraint] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.r2.schema.key is None:
            raise ConstraintError("R2 must declare a primary key")

    def check(self, fk_values: Sequence[object]) -> bool:
        """Does this complete FK assignment satisfy every CC and DC?"""
        r1 = self.r1
        if self.fk_column in r1.schema:
            r1 = r1.drop_column(self.fk_column)
        key_dtype = self.r2.schema.dtype(self.r2.schema.key)
        r1_hat = r1.with_column(
            ColumnSpec(self.fk_column, key_dtype), list(fk_values)
        )
        view = join.fk_join(r1_hat, self.r2, self.fk_column)
        # One fused pass over the view's cached column codes for all CCs.
        achieved = count_ccs(view, self.ccs)
        for cc, count in zip(self.ccs, achieved):
            if count != cc.target:
                return False
        # DC check: group by FK, try every arity-sized subset.
        by_fk: Dict[object, List[int]] = {}
        for i, fk in enumerate(fk_values):
            by_fk.setdefault(fk, []).append(i)
        rows = [r1.row(i) for i in range(len(r1))]
        for members in by_fk.values():
            for dc in self.dcs:
                if dc.arity > len(members):
                    continue
                for combo in itertools.combinations(members, dc.arity):
                    if dc.violates([rows[i] for i in combo]):
                        return False
        return True


def brute_force_decision(
    problem: CExtensionProblem, limit: int = 2_000_000
) -> Optional[List[object]]:
    """Search all FK assignments; return a witness or ``None``.

    Raises :class:`ConstraintError` when the search space exceeds
    ``limit`` — this oracle exists for tiny test instances only.
    """
    keys = list(problem.r2.column(problem.r2.schema.key))
    n = len(problem.r1)
    space = len(keys) ** n if keys else 0
    if space > limit:
        raise ConstraintError(
            f"brute force space {space} exceeds limit {limit}"
        )
    for assignment in itertools.product(keys, repeat=n):
        if problem.check(list(assignment)):
            return list(assignment)
    return None
