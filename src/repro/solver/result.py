"""Solver result types."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

__all__ = ["SolveStatus", "SolveResult"]


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    #: An integral incumbent found before a time/gap limit stopped the
    #: search — usable (``ok``) but without an optimality proof.
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"

    @property
    def ok(self) -> bool:
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


@dataclass
class SolveResult:
    """The outcome of one LP/ILP solve."""

    status: SolveStatus
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.status.ok

    def __repr__(self) -> str:
        obj = "None" if self.objective is None else f"{self.objective:.6g}"
        return f"SolveResult({self.status.value}, objective={obj})"
