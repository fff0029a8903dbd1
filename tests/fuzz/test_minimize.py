"""The delta-debugging shrinker, end to end through the fuzz pipeline."""

from repro.fuzz import (
    generate_spec,
    minimize_spec,
    replay_failure,
    run_oracle,
)
from repro.fuzz.oracle import BASELINE, OracleCell
from repro.spec.io import load_spec, save_spec

CELLS = [BASELINE, OracleCell("mmap", 0)]


class TestPipeline:
    def test_induced_divergence_shrinks_and_replays(self, tmp_path):
        # The full loop the CI lane relies on: an induced corruption is
        # caught as a divergence, shrunk to a tiny spec that still fails
        # the same oracle check, and the (seed, profile, chaos) triple
        # replays the original failure exactly.
        spec = generate_spec(1, "mixed")
        report = run_oracle(spec, CELLS, check_faults=False, chaos_on=0)
        assert report.outcome == "divergence"

        result = minimize_spec(spec, report.check, cells=CELLS, chaos_on=0)
        assert result.reproduced
        assert len(result.spec.relations) <= 3
        assert len(result.spec.relations) <= len(spec.relations)

        # The minimized spec still fails the recorded check...
        re_report = run_oracle(
            result.spec, CELLS, check_faults=False, chaos_on=0
        )
        assert re_report.outcome == "divergence"
        assert re_report.check == report.check

        # ...and survives a TOML round trip as a standalone repro file.
        path = tmp_path / "minimized.toml"
        save_spec(result.spec, path)
        loaded_report = run_oracle(
            load_spec(path), CELLS, check_faults=False, chaos_on=0
        )
        assert loaded_report.check == report.check

        # The replay command's parameters reproduce the same failure.
        replayed = replay_failure(
            1, "mixed", max_cells=2, chaos_edge=0, check_faults=False
        )
        assert replayed.outcome == "divergence"

    def test_passing_spec_reports_nothing_to_minimize(self):
        spec = generate_spec(7, "mixed")
        result = minimize_spec(
            spec, "identical:mmap/w0", cells=CELLS
        )
        assert not result.reproduced
        assert "no failure to minimize" in result.message

    def test_never_drops_fact_table(self):
        spec = generate_spec(1, "mixed")
        report = run_oracle(spec, CELLS, check_faults=False, chaos_on=0)
        result = minimize_spec(spec, report.check, cells=CELLS, chaos_on=0)
        names = {r.name for r in result.spec.relations}
        assert result.spec.fact_table in names
