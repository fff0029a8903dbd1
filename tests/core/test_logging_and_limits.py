"""Logging instrumentation and solver resource limits."""

import logging

import pytest

from repro import CExtensionSolver
from repro.solver import Model, SolveStatus, solve_model


class TestLogging:
    def test_solver_logs_phase_progress(
        self, caplog, paper_r1, paper_r2, paper_ccs, paper_dcs
    ):
        with caplog.at_level(logging.INFO, logger="repro.core.synthesizer"):
            CExtensionSolver().solve(
                paper_r1, paper_r2, fk_column="hid",
                ccs=paper_ccs, dcs=paper_dcs,
            )
        messages = " ".join(record.message for record in caplog.records)
        assert "solving C-Extension" in messages
        assert "phase I done" in messages
        assert "phase II done" in messages


class TestSolverLimits:
    @staticmethod
    def _packing_model():
        model = Model()
        xs = [
            model.add_variable(f"x{i}", upper=1.0, integer=True, objective=-1)
            for i in range(6)
        ]
        model.add_constraint({x.index: 2.0 for x in xs}, "<=", 5.0)
        return model

    def test_branch_and_bound_time_limit_returns_incumbent(self):
        # An all-but-expired deadline yields an honest limit status:
        # FEASIBLE with the incumbent if one was found in time, else
        # ITERATION_LIMIT — never INFEASIBLE.
        result = solve_model(self._packing_model(), time_limit=1e-9)
        assert result.status in (
            SolveStatus.FEASIBLE, SolveStatus.ITERATION_LIMIT
        )

    def test_branch_and_bound_gap_accepts_near_optimal(self):
        model = self._packing_model()
        exact = solve_model(model)
        loose = solve_model(model, mip_gap=0.5)
        assert exact.ok and loose.ok
        # The loose solve may stop at any solution within 50% of optimal.
        assert loose.objective <= exact.objective * (1 - 0.5) + 1e-9


class TestCsvErrorPaths:
    def test_non_integer_value_reported_with_location(self, tmp_path):
        from repro.errors import SchemaError
        from repro.relational.csvio import read_csv
        from repro.relational.relation import Relation

        reference = Relation.from_columns({"a": [1]}, key="a")
        path = tmp_path / "bad.csv"
        path.write_text("a\nnot_a_number\n")
        with pytest.raises(SchemaError) as excinfo:
            read_csv(path, reference.schema)
        assert ":2:" in str(excinfo.value)

    def test_ragged_row_reported(self, tmp_path):
        from repro.errors import SchemaError
        from repro.relational.csvio import read_csv
        from repro.relational.relation import Relation

        reference = Relation.from_columns({"a": [1], "b": [2]})
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1\n")
        with pytest.raises(SchemaError):
            read_csv(path, reference.schema)

    def test_from_rows_arity_validated(self):
        from repro.errors import SchemaError
        from repro.relational.relation import Relation
        from repro.relational.schema import ColumnSpec, Schema
        from repro.relational.types import Dtype

        schema = Schema([ColumnSpec("a", Dtype.INT), ColumnSpec("b", Dtype.INT)])
        with pytest.raises(SchemaError):
            Relation.from_rows(schema, [(1,)])
