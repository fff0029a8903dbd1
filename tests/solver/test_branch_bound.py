"""MILP instances with known optima, solved by ``solve_model``.

Integer variables send each case through HiGHS's branch-and-bound.
"""

import pytest

from repro.solver import Model, SolveStatus, solve_model


def _knapsack():
    # max 8a + 11b + 6c + 4d s.t. 5a + 7b + 4c + 3d <= 14, binary vars.
    model = Model()
    values = [8, 11, 6, 4]
    weights = [5, 7, 4, 3]
    vs = [
        model.add_variable(f"v{i}", upper=1.0, integer=True, objective=-values[i])
        for i in range(4)
    ]
    model.add_constraint(
        {v.index: w for v, w in zip(vs, weights)}, "<=", 14.0
    )
    return model


class TestBranchAndBound:
    def test_knapsack_optimum(self):
        result = solve_model(_knapsack())
        assert result.ok
        assert result.objective == pytest.approx(-21)  # items b + c + d... 11+6+4=21
        assert all(abs(x - round(x)) < 1e-6 for x in result.x)

    def test_fractional_lp_forced_integral(self):
        # LP optimum is fractional: max x + y, x + 2y <= 3, 2x + y <= 3.
        model = Model()
        x = model.add_variable("x", integer=True, objective=-1)
        y = model.add_variable("y", integer=True, objective=-1)
        model.add_constraint({x.index: 1, y.index: 2}, "<=", 3)
        model.add_constraint({x.index: 2, y.index: 1}, "<=", 3)
        result = solve_model(model)
        assert result.ok
        assert result.objective == pytest.approx(-2)

    def test_integer_infeasible(self):
        # 2x = 3 has no integer solution.
        model = Model()
        x = model.add_variable("x", integer=True)
        model.add_constraint({x.index: 2}, "==", 3)
        result = solve_model(model)
        assert result.status is SolveStatus.INFEASIBLE

    def test_lp_infeasible(self):
        model = Model()
        x = model.add_variable("x", integer=True)
        model.add_constraint({x.index: 1}, "==", 2)
        model.add_constraint({x.index: 1}, "==", 5)
        result = solve_model(model)
        assert result.status is SolveStatus.INFEASIBLE

    def test_continuous_pass_through(self):
        model = Model()
        x = model.add_variable("x", objective=1)
        model.add_constraint({x.index: 2}, "==", 3)
        result = solve_model(model)
        assert result.ok
        assert result.x[0] == pytest.approx(1.5)

    def test_equality_counts_problem(self):
        # The Phase-I shape: partition counts with equality rows.
        model = Model()
        xs = [model.add_variable(f"x{i}", integer=True) for i in range(3)]
        model.add_constraint({v.index: 1 for v in xs}, "==", 10)
        model.add_constraint({xs[0].index: 1, xs[1].index: 1}, "==", 6)
        model.add_constraint({xs[0].index: 1}, "==", 2)
        result = solve_model(model)
        assert result.ok
        assert [round(v) for v in result.x] == [2, 4, 4]
