"""The benchmark harness and its reporting helpers."""

import pytest

from repro.bench import (
    ExperimentRow,
    error_histogram,
    render_breakdown,
    render_series,
    render_table,
    run_baseline,
    run_hybrid,
)
from repro.datagen import good_dcs


class TestRunners:
    def test_run_hybrid_row(self, census_small, census_good_ccs):
        row = run_hybrid(census_small, census_good_ccs, good_dcs(), scale="1x")
        assert row.algorithm == "hybrid"
        assert row.scale == "1x"
        assert row.dc_error == 0.0
        assert row.total_seconds == pytest.approx(
            row.phase1_seconds + row.phase2_seconds
        )
        # Filled from Phase1Stats: leftover completion always runs.
        assert row.completion_seconds > 0.0
        assert len(row.per_cc_errors) == len(census_good_ccs)

    def test_run_baseline_row(self, census_small, census_good_ccs):
        row = run_baseline(census_small, census_good_ccs, good_dcs())
        assert row.algorithm == "baseline"
        # Every CC goes into the baseline's one ILP; good CCs need none
        # in the hybrid.
        assert row.ilp_variables > 0
        hybrid = run_hybrid(census_small, census_good_ccs, good_dcs())
        assert hybrid.ilp_variables == 0
        marg = run_baseline(
            census_small, census_good_ccs, good_dcs(), with_marginals=True
        )
        assert marg.algorithm == "baseline+marginals"

    def test_as_dict_columns(self, census_small, census_good_ccs):
        row = run_hybrid(census_small, census_good_ccs, [], scale="x")
        d = row.as_dict()
        assert {"algorithm", "scale", "median_cc_error", "dc_error"} <= set(d)


class TestReporting:
    def _row(self, **kwargs):
        return ExperimentRow(algorithm="hybrid", **kwargs)

    def test_render_table(self):
        rows = [self._row(scale="1x", dc_error=0.0, median_cc_error=0.0)]
        text = render_table("My Table", rows)
        assert "My Table" in text
        assert "hybrid" in text
        assert "dc_error" in text

    def test_render_series(self):
        text = render_series("S", {"a": [(1, 0.5), (2, 1.0)]})
        assert "x=1" in text and "y=1.0000s" in text

    def test_render_breakdown_percentages(self):
        text = render_breakdown("B", {"ilp": 3.0, "coloring": 1.0})
        assert "75.00%" in text and "25.00%" in text

    def test_error_histogram(self):
        histogram = error_histogram([0.0, 0.0, 0.02, 0.3, 2.0])
        assert histogram["exact=0"] == 2
        assert histogram["[0.25, 0.5)"] == 1
        assert histogram["[1, inf)"] == 1
        assert sum(
            v for k, v in histogram.items() if k != "exact=0"
        ) == 5
