"""Per-key usage: the subject of the paper's future-work item 1.

The paper's linear CCs count join-view rows; its conclusions name
*non-linear* CCs — constraints "on the number of rows that share the same
foreign key" — as future work.  The most common such constraint is a
**capacity**: no key may be referenced by more than ``max_per_key`` rows
(census households have bounded size; a department hosts at most so many
majors).

The ``"capacity"``, ``"soft_capacity"`` and ``"quota_coloring"``
Phase-II strategies (:mod:`repro.phase2.strategies`) enforce such caps;
:func:`fk_usage_histogram` counts what a completed FK column realised.
"""

from __future__ import annotations

from typing import Dict

# perfbench's trace targets still look these two names up in this module.
from repro.phase2.edges import build_conflict_graph  # noqa: F401
from repro.phase2.fk_assignment import partition_by_combo  # noqa: F401
from repro.relational.relation import Relation

__all__ = ["fk_usage_histogram"]


def fk_usage_histogram(r1_hat: Relation, fk_column: str) -> Dict[object, int]:
    """How many rows reference each key (the non-linear CC's subject)."""
    out: Dict[object, int] = {}
    for value in r1_hat.column(fk_column):
        out[value] = out.get(value, 0) + 1
    return out
