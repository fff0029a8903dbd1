"""Solver edge cases: unbounded MILPs, bad bounds, all-``==`` systems.

An unbounded MILP must surface as ``UNBOUNDED`` — HiGHS reports "unbounded
or infeasible" for it, and ``solve_model`` settles which — while an
integer-infeasible model whose relaxation is unbounded stays
``INFEASIBLE``.
"""

import numpy as np
import pytest

from repro.solver import Model, SolveStatus, solve_model


def _lp(a, b, senses, c):
    model = Model()
    for cost in c:
        model.add_variable(objective=float(cost))
    for row, rhs, sense in zip(a, b, senses):
        model.add_constraint(
            {j: float(v) for j, v in enumerate(row) if v}, sense, rhs
        )
    return solve_model(model)


class TestUnboundedMilp:
    def test_unbounded_root_is_reported_unbounded(self):
        """An integer variable with no upper bound and a negative cost:
        the root LP relaxation is unbounded, and so is the MILP."""
        model = Model()
        model.add_variable(name="x", lower=0.0, integer=True, objective=-1.0)
        result = solve_model(model)
        assert result.status is SolveStatus.UNBOUNDED

    def test_unbounded_milp_with_constraint(self):
        model = Model()
        x = model.add_variable(name="x", lower=0.0, integer=True)
        y = model.add_variable(name="y", lower=0.0, integer=True)
        model.add_constraint({x.index: 1.0, y.index: -1.0}, "<=", 3.0)
        model.set_objective({x.index: -1.0})
        result = solve_model(model)
        assert result.status is SolveStatus.UNBOUNDED

    def test_pure_lp_unbounded_still_reported(self):
        model = Model()
        model.add_variable(name="x", lower=0.0, objective=-1.0)
        result = solve_model(model)
        assert result.status is SolveStatus.UNBOUNDED

    def test_bounded_milp_still_solves(self):
        model = Model()
        x = model.add_variable(name="x", lower=0.0, upper=10.0, integer=True)
        model.add_constraint({x.index: 2.0}, "<=", 7.0)
        model.set_objective({x.index: -1.0})
        result = solve_model(model)
        assert result.status is SolveStatus.OPTIMAL
        assert result.x[x.index] == pytest.approx(3.0)

    def test_unbounded_relaxation_integer_infeasible(self):
        # 2x - 2y = 1 has real solutions all the way out (so the
        # relaxation of min -x is unbounded) but no integer one.
        model = Model()
        x = model.add_variable(name="x", lower=0.0, integer=True)
        y = model.add_variable(name="y", lower=0.0, integer=True)
        model.add_constraint({x.index: 2.0, y.index: -2.0}, "==", 1.0)
        model.set_objective({x.index: -1.0})
        result = solve_model(model)
        assert result.status is SolveStatus.INFEASIBLE


class TestBadBounds:
    def test_infeasible_bounds_lower_above_upper(self):
        # [0.2, 0.8] passes the model's lower <= upper check, but the
        # integer bounds it implies are 1 > 0.
        model = Model()
        model.add_variable(name="x", lower=0.2, upper=0.8, integer=True)
        result = solve_model(model)
        assert result.status is SolveStatus.INFEASIBLE

    def test_infeasible_bounds_through_branch_and_bound(self):
        model = Model()
        x = model.add_variable(name="x", lower=0.0, upper=5.0, integer=True)
        y = model.add_variable(name="y", lower=6.0, upper=9.0, integer=True)
        model.add_constraint({x.index: 1.0, y.index: -1.0}, "==", 0.0)
        result = solve_model(model)
        assert result.status is SolveStatus.INFEASIBLE

    def test_free_variable_solves(self):
        model = Model()
        x = model.add_variable(name="x", lower=-np.inf, objective=1.0)
        model.add_constraint({x.index: 1.0}, ">=", -3.0)
        result = solve_model(model)
        assert result.status is SolveStatus.OPTIMAL
        assert result.x[x.index] == pytest.approx(-3.0)


class TestAllEqualitySystems:
    def test_square_equality_system(self):
        # x + y = 10, x - y = 2 → (6, 4); every row is an equality.
        result = _lp([[1, 1], [1, -1]], [10, 2], ["==", "=="], [1.0, 1.0])
        assert result.ok
        assert np.allclose(result.x, [6, 4])

    def test_overdetermined_consistent(self):
        result = _lp(
            [[1, 1], [2, 2], [1, -1]], [4, 8, 0], ["==", "==", "=="],
            [1.0, 0.0],
        )
        assert result.ok
        assert np.allclose(result.x, [2, 2])

    def test_overdetermined_inconsistent(self):
        result = _lp([[1, 1], [1, 1]], [4, 5], ["==", "=="], [1.0, 1.0])
        assert result.status is SolveStatus.INFEASIBLE

    def test_all_equality_milp_known_answer(self):
        model = Model()
        x = model.add_variable(name="x", lower=0.0, upper=20.0, integer=True)
        y = model.add_variable(name="y", lower=0.0, upper=20.0, integer=True)
        model.add_constraint({x.index: 1.0, y.index: 1.0}, "==", 13.0)
        model.add_constraint({x.index: 1.0, y.index: -1.0}, "==", 3.0)
        model.set_objective({x.index: 1.0, y.index: 2.0})
        # x + y = 13 and x - y = 3 leave one point: (8, 5).
        result = solve_model(model)
        assert result.status is SolveStatus.OPTIMAL
        assert np.allclose(result.x, [8, 5])
        assert result.objective == pytest.approx(18)
