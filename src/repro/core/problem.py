"""The C-Extension problem object and a brute-force decision oracle.

:class:`CExtensionProblem` bundles one instance (Definition 2.6).  The
exact :func:`brute_force_decision` oracle searches every FK assignment,
pruning partial ones that already violate a DC — exponential, strictly
for tests: it lets property-based tests compare the heuristic pipeline
against ground truth on tiny instances, and it realises the decision
version used in the NP-hardness reduction (Proposition 2.8).
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

    A depth-first search over rows ``0..n-1`` that tries keys in order,
    so it meets assignments in :func:`itertools.product` order and
    returns the first witness an exhaustive scan would.  A branch is cut
    as soon as the newest row completes a DC violation with earlier rows
    on its key — the same tuples, in the same order, that
    :meth:`CExtensionProblem.check` tests — and every complete
    assignment is decided by ``check`` itself.

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
    r1 = problem.r1
    if problem.fk_column in r1.schema:
        r1 = r1.drop_column(problem.fk_column)
    rows = [r1.row(i) for i in range(n)]
    members: Dict[object, List[int]] = {key: [] for key in keys}

    def completes_violation(row: int, key: object) -> bool:
        earlier = [rows[i] for i in members[key]]
        return any(
            dc.violates([*combo, rows[row]])
            for dc in problem.dcs
            for combo in itertools.combinations(earlier, dc.arity - 1)
        )

    fk: List[object] = []
    tried = [0] * n  # keys tried so far by each row on the current path
    while True:
        row = len(fk)
        if row == n and problem.check(fk):
            return fk
        # Step to the next untried key, backtracking out of exhausted
        # rows (and out of a complete assignment that failed the check).
        while row == n or tried[row] == len(keys):
            if row < n:
                tried[row] = 0
            if row == 0:
                return None
            row -= 1
            members[fk.pop()].pop()
        key = keys[tried[row]]
        tried[row] += 1
        if not completes_violation(row, key):
            fk.append(key)
            members[key].append(row)
