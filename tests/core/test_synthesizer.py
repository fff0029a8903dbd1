"""The end-to-end CExtensionSolver."""

import pytest

from repro import CExtensionSolver, SolverConfig
from repro.errors import SchemaError
from repro.relational.relation import Relation


class TestRunningExample:
    def test_zero_errors(self, paper_r1, paper_r2, paper_ccs, paper_dcs):
        result = CExtensionSolver().solve(
            paper_r1, paper_r2, fk_column="hid", ccs=paper_ccs, dcs=paper_dcs
        )
        errors = result.report.errors
        assert errors.mean_cc_error == 0.0
        assert errors.dc_error == 0.0

    def test_fk_column_present_is_ignored(
        self, paper_r1, paper_r2, paper_ccs, paper_dcs
    ):
        from repro.relational.schema import ColumnSpec
        from repro.relational.types import Dtype

        with_fk = paper_r1.with_column(
            ColumnSpec("hid", Dtype.INT), [1] * len(paper_r1)
        )
        result = CExtensionSolver().solve(
            with_fk, paper_r2, fk_column="hid", ccs=paper_ccs, dcs=paper_dcs
        )
        assert result.report.errors.dc_error == 0.0

    def test_join_view_roundtrip(self, paper_r1, paper_r2, paper_ccs, paper_dcs):
        result = CExtensionSolver().solve(
            paper_r1, paper_r2, fk_column="hid", ccs=paper_ccs, dcs=paper_dcs
        )
        view = result.join_view()
        assert len(view) == len(paper_r1)
        assert "Area" in view.schema

    def test_timings_recorded(self, paper_r1, paper_r2, paper_ccs, paper_dcs):
        result = CExtensionSolver().solve(
            paper_r1, paper_r2, fk_column="hid", ccs=paper_ccs, dcs=paper_dcs
        )
        report = result.report
        assert report.phase1_seconds > 0
        assert report.phase2_seconds > 0
        assert report.total_seconds == pytest.approx(
            report.phase1_seconds + report.phase2_seconds
        )
        assert set(report.breakdown()) == {"phase1", "phase2"}


class TestConfig:
    def test_invalid_backend_rejected(self):
        # HiGHS is the one ILP solver: ``backend`` is not a knob, so
        # naming any backend fails loudly.
        with pytest.raises(TypeError):
            SolverConfig(backend="scipy")

    def test_invalid_marginals_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(marginals="sometimes")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("soft_ccs", "false"),
            ("force_ilp", 1),
            ("evaluate", "no"),
            ("workers", 2.5),
            ("workers", True),
            ("chunk_rows", "8"),
            ("chunk_rows", False),
            ("time_limit", "5"),
            ("time_limit", True),
            ("mip_gap", False),
            ("storage_dir", 3),
        ],
    )
    def test_mistyped_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SolverConfig(**{field: value})

    def test_nan_time_limit_rejected(self):
        with pytest.raises(ValueError, match="^time_limit must be positive"):
            SolverConfig(time_limit=float("nan"))

    def test_chunk_rows_below_one_rejected(self):
        with pytest.raises(ValueError, match="chunk_rows must be >= 1"):
            SolverConfig(chunk_rows=0)

    def test_numbers_and_none_accepted(self):
        config = SolverConfig(time_limit=5, mip_gap=0.5, storage_dir="d")
        assert (config.time_limit, config.mip_gap) == (5, 0.5)
        assert SolverConfig(time_limit=None).time_limit is None

    def test_evaluation_can_be_disabled(
        self, paper_r1, paper_r2, paper_ccs, paper_dcs
    ):
        result = CExtensionSolver(SolverConfig(evaluate=False)).solve(
            paper_r1, paper_r2, fk_column="hid", ccs=paper_ccs, dcs=paper_dcs
        )
        assert result.report.errors is None

    def test_force_ilp_config(self, paper_r1, paper_r2, paper_ccs, paper_dcs):
        result = CExtensionSolver(SolverConfig(force_ilp=True)).solve(
            paper_r1, paper_r2, fk_column="hid", ccs=paper_ccs, dcs=paper_dcs
        )
        assert result.phase1.s1_indices == []
        assert result.report.errors.dc_error == 0.0


class TestValidation:
    def test_r2_needs_key(self, paper_r1):
        keyless = Relation.from_columns({"hid": [1], "Area": ["x"]})
        with pytest.raises(SchemaError):
            CExtensionSolver().solve(paper_r1, keyless, fk_column="hid")

    def test_unknown_cc_attribute_rejected(self, paper_r1, paper_r2):
        from repro.constraints.parser import parse_cc
        from repro.errors import ConstraintError

        bad = [parse_cc("|Height == 7 & Area == 'Chicago'| = 1")]
        with pytest.raises(ConstraintError):
            CExtensionSolver().solve(
                paper_r1, paper_r2, fk_column="hid", ccs=bad
            )

    def test_no_constraints_still_completes(self, paper_r1, paper_r2):
        result = CExtensionSolver().solve(paper_r1, paper_r2, fk_column="hid")
        assert len(result.r1_hat) == len(paper_r1)
        assert set(result.r1_hat.column("hid")) <= set(
            result.r2_hat.column("hid")
        )
