"""LP instances with known optima, solved by ``solve_model``.

All variables are continuous, so HiGHS answers each with its simplex;
the cases pin the model adapter's handling of senses, bounds and
degenerate or redundant rows.
"""

import numpy as np
import pytest

from repro.solver import Model, SolveStatus, solve_model


def _solve(a, b, senses, c, lower=None, upper=None):
    a = np.asarray(a, dtype=float).reshape(len(b), len(c))
    lower = np.zeros(len(c)) if lower is None else lower
    upper = np.full(len(c), np.inf) if upper is None else upper
    model = Model()
    for cost, lo, hi in zip(c, lower, upper):
        model.add_variable(
            lower=float(lo), upper=float(hi), objective=float(cost)
        )
    for row, rhs, sense in zip(a, b, senses):
        model.add_constraint(
            {j: float(v) for j, v in enumerate(row) if v}, sense, rhs
        )
    return solve_model(model)


class TestOptimal:
    def test_textbook_maximisation(self):
        # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 → (2, 6), 36.
        result = _solve(
            [[1, 0], [0, 2], [3, 2]], [4, 12, 18],
            ["<=", "<=", "<="], [-3, -5],
        )
        assert result.ok
        assert np.allclose(result.x, [2, 6])
        assert result.objective == pytest.approx(-36)

    def test_equality_constraints(self):
        # min x + y s.t. x + y = 10, x - y = 2 → (6, 4).
        result = _solve([[1, 1], [1, -1]], [10, 2], ["==", "=="], [1, 1])
        assert result.ok
        assert np.allclose(result.x, [6, 4])

    def test_greater_equal(self):
        # min 2x + 3y s.t. x + y >= 4, x >= 1 → (4, 0), 8.
        result = _solve([[1, 1], [1, 0]], [4, 1], [">=", ">="], [2, 3])
        assert result.ok
        assert result.objective == pytest.approx(8)

    def test_upper_bounds(self):
        # min -x with x <= 3 via variable bound.
        result = _solve([], [], [], [-1], lower=[0], upper=[3])
        assert result.ok
        assert result.x[0] == pytest.approx(3)

    def test_lower_bound_shift(self):
        # min x with 2 <= x <= 9 → 2.
        result = _solve([], [], [], [1], lower=[2], upper=[9])
        assert result.ok
        assert result.x[0] == pytest.approx(2)

    def test_negative_rhs_normalised(self):
        # x >= -5 written as -x <= 5; min x with x >= 0 → 0.
        result = _solve([[-1]], [5], ["<="], [1])
        assert result.ok
        assert result.x[0] == pytest.approx(0)


class TestInfeasibleUnbounded:
    def test_infeasible(self):
        result = _solve([[1], [1]], [2, 5], ["==", "=="], [1])
        assert result.status is SolveStatus.INFEASIBLE

    def test_infeasible_bounds(self):
        # x in [5, 9] and y in [0, 4] can never meet x == y.
        result = _solve(
            [[1, -1]], [0], ["=="], [1, 1], lower=[5, 0], upper=[9, 4]
        )
        assert result.status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        result = _solve([], [], [], [-1])
        assert result.status is SolveStatus.UNBOUNDED


class TestDegenerate:
    def test_degenerate_ties_terminate(self):
        # Multiple ties in the ratio test.
        result = _solve(
            [[1, 1, 1], [1, 0, 0], [0, 1, 0]],
            [1, 1, 1],
            ["<=", "<=", "<="],
            [-1, -1, -1],
        )
        assert result.ok
        assert result.objective == pytest.approx(-1)

    def test_redundant_equalities(self):
        # x + y = 4 listed twice.
        result = _solve([[1, 1], [1, 1]], [4, 4], ["==", "=="], [1, 0])
        assert result.ok
        assert result.x.sum() == pytest.approx(4)
