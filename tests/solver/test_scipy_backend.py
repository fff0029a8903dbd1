"""The HiGHS solve, held to exhaustive enumeration on small ILPs."""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.solver import Model, solve_model
from repro.solver.result import SolveStatus

_SENSES = ("<=", ">=", "==")


def _satisfies(lhs, sense, rhs):
    if sense == "<=":
        return lhs <= rhs
    if sense == ">=":
        return lhs >= rhs
    return lhs == rhs


class TestScipySolve:
    def test_simple_ilp(self):
        model = Model()
        x = model.add_variable("x", integer=True, objective=-1)
        y = model.add_variable("y", integer=True, objective=-1)
        model.add_constraint({x.index: 1, y.index: 2}, "<=", 7)
        model.add_constraint({x.index: 3, y.index: 1}, "<=", 9)
        result = solve_model(model)
        assert result.ok
        assert result.objective == pytest.approx(-4)

    def test_infeasible(self):
        model = Model()
        x = model.add_variable("x", integer=True, upper=1.0)
        model.add_constraint({x.index: 1}, ">=", 5)
        assert solve_model(model).status is SolveStatus.INFEASIBLE

    def test_presolve_solve_error_is_classified(self):
        """HiGHS's presolve answers "Solve error" (status 4) for this
        infeasible model; the solve without presolve classifies it."""
        model = Model()
        for upper in (0.0, 2.0, 0.0):
            model.add_variable(upper=upper, integer=True)
        model.add_constraint({0: 1.0, 1: -2.0, 2: 2.0}, "==", -1)
        assert solve_model(model).status is SolveStatus.INFEASIBLE

    def test_solution_is_integral(self):
        model = Model()
        x = model.add_variable("x", integer=True, objective=-1)
        model.add_constraint({x.index: 2}, "<=", 7)
        result = solve_model(model)
        assert result.x[0] == 3


@st.composite
def _small_ilps(draw):
    """``(costs, upper bounds, constraint rows)`` of an ILP over at most
    three integer variables, each in ``[0, upper]``."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 3))
    c = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    upper = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    rows = [
        (
            draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)),
            draw(st.sampled_from(_SENSES)),
            draw(st.integers(-10, 20)),
        )
        for _ in range(m)
    ]
    return c, upper, rows


class TestExhaustiveAgreement:
    @settings(max_examples=50, deadline=None)
    @given(_small_ilps())
    # Infeasible, and a "Solve error" for HiGHS's presolve.
    @example(([0, 0, 0], [0, 2, 0], [([1, -2, 2], "==", -1)]))
    def test_matches_enumeration_on_random_ilps(self, ilp):
        """The optimum over every integer point of the box (at most
        7**3 = 343 of them), or INFEASIBLE when none is feasible."""
        c, upper, rows = ilp
        model = Model()
        for cost, ub in zip(c, upper):
            model.add_variable(
                upper=float(ub), integer=True, objective=float(cost)
            )
        for coeffs, sense, rhs in rows:
            model.add_constraint(
                {j: float(v) for j, v in enumerate(coeffs)}, sense, rhs
            )

        best = None
        for point in itertools.product(*(range(ub + 1) for ub in upper)):
            if all(
                _satisfies(
                    sum(a * x for a, x in zip(coeffs, point)), sense, rhs
                )
                for coeffs, sense, rhs in rows
            ):
                value = sum(a * x for a, x in zip(c, point))
                best = value if best is None else min(best, value)

        result = solve_model(model)
        if best is None:
            assert result.status is SolveStatus.INFEASIBLE
        else:
            assert result.status is SolveStatus.OPTIMAL
            assert result.objective == pytest.approx(best, abs=1e-6)
