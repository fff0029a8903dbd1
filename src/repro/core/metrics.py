"""Error measures from Section 6.1.

* **Relative CC error** for ``CC_i``: ``|ĉ_i − c_i| / max(10, c_i)`` where
  ``ĉ_i`` is the count in the synthesized database and ``c_i`` the target
  (the threshold 10 guards against tiny targets).
* **DC error**: the fraction of ``R1̂`` tuples involved in at least one DC
  violation.

Both are computed on the *final* relations — after Phase II may have grown
``R2̂`` — exactly as the paper evaluates.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.constraints.cc import CardinalityConstraint, count_ccs
from repro.constraints.dc import DenialConstraint, count_violating_tuples
from repro.phase2.edges import violating_rows
from repro.relational import join
from repro.relational.relation import Relation

__all__ = [
    "cc_errors",
    "dc_error",
    "dc_error_naive",
    "ErrorReport",
    "evaluate",
]


def cc_errors(
    join_view: Relation, ccs: Sequence[CardinalityConstraint]
) -> List[float]:
    """Per-CC relative errors over a (materialised) join view.

    All CCs are counted in one fused pass over the view's cached column
    codes (:func:`repro.constraints.cc.count_ccs`).
    """
    return [
        abs(achieved - cc.target) / max(10, cc.target)
        for cc, achieved in zip(ccs, count_ccs(join_view, ccs))
    ]


def dc_error(
    r1_hat: Relation, fk_column: str, dcs: Sequence[DenialConstraint]
) -> float:
    """Fraction of R1̂ tuples participating in some DC violation.

    Counts the rows :func:`repro.phase2.edges.violating_rows` finds,
    over the same atom kernels Phase II's conflict edges use.
    """
    if len(r1_hat) == 0:
        return 0.0
    return len(violating_rows(r1_hat, fk_column, dcs)) / len(r1_hat)


def dc_error_naive(
    r1_hat: Relation, fk_column: str, dcs: Sequence[DenialConstraint]
) -> float:
    """Per-row reference implementation of :func:`dc_error`."""
    if len(r1_hat) == 0:
        return 0.0
    rows = [r1_hat.row(i) for i in range(len(r1_hat))]
    fk_values = list(r1_hat.column(fk_column))
    violating = count_violating_tuples(rows, fk_values, dcs)
    return violating / len(r1_hat)


@dataclass
class ErrorReport:
    """CC and DC error summary for one synthesized database."""

    per_cc: List[float] = field(default_factory=list)
    dc_error: float = 0.0

    @property
    def median_cc_error(self) -> float:
        return statistics.median(self.per_cc) if self.per_cc else 0.0

    @property
    def mean_cc_error(self) -> float:
        return statistics.fmean(self.per_cc) if self.per_cc else 0.0

    @property
    def max_cc_error(self) -> float:
        return max(self.per_cc) if self.per_cc else 0.0

    @property
    def num_exact_ccs(self) -> int:
        return sum(1 for e in self.per_cc if e == 0.0)

    def summary(self) -> Dict[str, float]:
        return {
            "median_cc_error": self.median_cc_error,
            "mean_cc_error": self.mean_cc_error,
            "max_cc_error": self.max_cc_error,
            "dc_error": self.dc_error,
        }


def evaluate(
    r1_hat: Relation,
    r2_hat: Relation,
    fk_column: str,
    ccs: Sequence[CardinalityConstraint],
    dcs: Sequence[DenialConstraint],
) -> ErrorReport:
    """Full error report on a synthesized database."""
    join_view = join.fk_join(r1_hat, r2_hat, fk_column)
    return ErrorReport(
        per_cc=cc_errors(join_view, ccs),
        dc_error=dc_error(r1_hat, fk_column, dcs),
    )
