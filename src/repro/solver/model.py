"""A small linear-program model builder.

:class:`Model` accumulates variables (with bounds, integrality and
objective coefficients) and linear constraints, then hands a dense matrix
form to the solver.  The paper's Phase-I system is small after
intervalization, so a dense representation is adequate; coefficient maps
are stored sparsely until solve time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.errors import SolverError

__all__ = ["Model", "Variable", "Constraint"]

_SENSES = ("==", "<=", ">=")


@dataclass(frozen=True)
class Variable:
    """A model variable (identified by its index)."""

    index: int
    name: str
    lower: float
    upper: float
    integer: bool


@dataclass(frozen=True)
class Constraint:
    """``sum(coeffs[i] * x_i)  sense  rhs``."""

    coeffs: Tuple[Tuple[int, float], ...]
    sense: str
    rhs: float
    name: str = ""


class Model:
    """Accumulates a (mixed-)integer linear program."""

    def __init__(self) -> None:
        self._variables: List[Variable] = []
        self._constraints: List[Constraint] = []
        self._objective: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_variable(
        self,
        name: str = "",
        lower: float = 0.0,
        upper: float = math.inf,
        integer: bool = False,
        objective: float = 0.0,
    ) -> Variable:
        if lower > upper:
            raise SolverError(
                f"variable {name!r}: lower bound {lower} > upper bound {upper}"
            )
        var = Variable(
            index=len(self._variables),
            name=name or f"x{len(self._variables)}",
            lower=lower,
            upper=upper,
            integer=integer,
        )
        self._variables.append(var)
        if objective:
            self._objective[var.index] = objective
        return var

    def add_constraint(
        self,
        coeffs: Mapping[int, float],
        sense: str,
        rhs: float,
        name: str = "",
    ) -> Constraint:
        if sense not in _SENSES:
            raise SolverError(f"unknown constraint sense {sense!r}")
        for index in coeffs:
            if not 0 <= index < len(self._variables):
                raise SolverError(
                    f"constraint references unknown variable {index}"
                )
        constraint = Constraint(
            coeffs=tuple(sorted(coeffs.items())),
            sense=sense,
            rhs=float(rhs),
            name=name,
        )
        self._constraints.append(constraint)
        return constraint

    def set_objective(self, coeffs: Mapping[int, float]) -> None:
        """Minimisation objective (replaces any previous one)."""
        self._objective = dict(coeffs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return len(self._variables)

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    @property
    def variables(self) -> Tuple[Variable, ...]:
        return tuple(self._variables)

    @property
    def constraints(self) -> Tuple[Constraint, ...]:
        return tuple(self._constraints)

    @property
    def integer_indices(self) -> List[int]:
        return [v.index for v in self._variables if v.integer]

    # ------------------------------------------------------------------
    # Dense export
    # ------------------------------------------------------------------
    def dense(self) -> Tuple[np.ndarray, np.ndarray, List[str], np.ndarray,
                             np.ndarray, np.ndarray]:
        """Return ``(A, b, senses, c, lower, upper)`` in dense form."""
        n = self.num_variables
        m = self.num_constraints
        a = np.zeros((m, n), dtype=np.float64)
        b = np.zeros(m, dtype=np.float64)
        senses: List[str] = []
        for row, constraint in enumerate(self._constraints):
            for index, coeff in constraint.coeffs:
                a[row, index] = coeff
            b[row] = constraint.rhs
            senses.append(constraint.sense)
        c = np.zeros(n, dtype=np.float64)
        for index, coeff in self._objective.items():
            c[index] = coeff
        lower = np.asarray(
            [v.lower for v in self._variables], dtype=np.float64
        )
        upper = np.asarray(
            [v.upper for v in self._variables], dtype=np.float64
        )
        return a, b, senses, c, lower, upper
