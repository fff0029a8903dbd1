"""LP/ILP solving: a small model builder and one HiGHS solve."""

from repro.solver.model import Constraint, Model, Variable
from repro.solver.result import SolveResult, SolveStatus
from repro.solver.scipy_backend import solve_model

__all__ = [
    "Constraint",
    "Model",
    "SolveResult",
    "SolveStatus",
    "Variable",
    "solve_model",
]
