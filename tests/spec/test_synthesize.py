"""The unified synthesize() front door over every pipeline."""

from pathlib import Path

import pytest

import repro
from repro.core import synthesizer
from repro.core.config import SolverConfig
from repro.core.synthesizer import CExtensionSolver
from repro.datagen.census import CensusConfig, generate_census
from repro.datagen.constraints_census import cc_family, good_dcs
from repro.errors import ReproError, SchemaError
from repro.extensions.capacity import fk_usage_histogram
from repro.phase2.strategies import phase2_strategies, phase2_strategy
from repro.spec import SpecBuilder, load_spec, synthesize

UNIVERSITY_SPEC = (
    Path(__file__).resolve().parents[2]
    / "examples" / "specs" / "university.toml"
)


@pytest.fixture(scope="module")
def census():
    data = generate_census(
        CensusConfig(n_households=80, n_areas=4, seed=11)
    )
    return data, cc_family(data, "good", 30), good_dcs()


def census_spec(data, ccs=(), dcs=(), capacity=None, config=None):
    builder = (
        SpecBuilder("census")
        .relation("persons", data=data.persons_masked, key="pid")
        .relation("housing", data=data.housing, key="hid")
        .edge("persons", "hid", "housing",
              ccs=list(ccs), dcs=list(dcs), capacity=capacity)
    )
    if config is not None:
        builder.options(config)
    return builder.build()


class TestTwoTable:
    def test_matches_direct_solver(self, census):
        data, ccs, dcs = census
        direct = CExtensionSolver().solve(
            data.persons_masked, data.housing,
            fk_column="hid", ccs=ccs, dcs=dcs,
        )
        unified = synthesize(census_spec(data, ccs, dcs))
        assert (
            unified.relation("persons").to_rows() == direct.r1_hat.to_rows()
        )
        assert (
            unified.relation("housing").to_rows() == direct.r2_hat.to_rows()
        )
        assert unified.dc_error == direct.report.errors.dc_error

    def test_summary_is_json_serialisable(self, census):
        import json

        data, ccs, dcs = census
        result = synthesize(census_spec(data, ccs[:5], dcs))
        summary = json.loads(json.dumps(result.summary()))
        assert summary["fact_table"] == "persons"
        assert summary["edges"][0]["strategy"] == "coloring"
        assert summary["relations"]["persons"] == len(data.persons)


class TestCapacity:
    def test_matches_solve_with_capacity(self, census):
        """Acceptance: synthesize() with a cap == the solver's
        ``"capacity"`` strategy with that ``max_per_key``."""
        data, ccs, dcs = census
        legacy = CExtensionSolver().solve(
            data.persons_masked, data.housing,
            fk_column="hid", ccs=ccs, dcs=dcs, strategy="capacity",
            strategy_options={"max_per_key": 3},
        )
        unified = synthesize(census_spec(data, ccs, dcs, capacity=3))
        assert (
            unified.relation("persons").to_rows() == legacy.r1_hat.to_rows()
        )
        assert (
            unified.relation("housing").to_rows() == legacy.r2_hat.to_rows()
        )
        assert (
            unified.edges[0].num_new_parent_tuples
            == legacy.phase2.stats.num_new_r2_tuples
        )

    def test_capacity_invariant_holds(self, census):
        data, _, dcs = census
        result = synthesize(census_spec(data, dcs=dcs, capacity=2))
        usage = fk_usage_histogram(result.relation("persons"), "hid")
        assert max(usage.values()) <= 2
        assert result.edges[0].strategy == "capacity"
        assert result.dc_error == 0.0


class TestSnowflake:
    def test_university_spec_end_to_end(self):
        spec = load_spec(UNIVERSITY_SPEC)
        result = synthesize(spec)
        assert len(result.edges) == 3
        students = result.relation("Students")
        assert "major_id" in students.schema
        assert "course_id" in students.schema
        assert "dept_id" in result.relation("Majors").schema
        assert result.dc_error == 0.0 and result.max_cc_error == 0.0

    def test_unreachable_edge_rejected(self):
        spec = (
            SpecBuilder()
            .relation("a", columns={"k": [1]}, key="k")
            .relation("b", columns={"k": [1]}, key="k")
            .relation("c", columns={"k": [1]}, key="k")
            .relation("d", columns={"k": [1]}, key="k")
            .edge("a", "fk_b", "b")
            .edge("c", "fk_d", "d")
            .fact_table("a")
            .build()
        )
        with pytest.raises(SchemaError):
            synthesize(spec)


class TestEdgeTimings:
    @staticmethod
    def _two_dim_spec(**options):
        builder = (
            SpecBuilder("timing")
            .relation(
                "F",
                columns={"fid": list(range(6)), "W": [v % 3 for v in range(6)]},
                key="fid",
            )
            .relation("D0", columns={"k0": [0, 1], "X0": [0, 1]}, key="k0")
            .relation("D1", columns={"k1": [0, 1, 2], "X1": [0, 1, 2]}, key="k1")
            .edge("F", "fk0", "D0")
            .edge("F", "fk1", "D1")
            .fact_table("F")
        )
        if options:
            builder.options(**options)
        return builder.build()

    def test_sequential_run_populates_wall_seconds(self):
        result = synthesize(self._two_dim_spec())
        assert len(result.edges) == 2
        for edge in result.edges:
            assert edge.wall_seconds > 0.0
            summary = edge.as_dict()
            assert summary["wall_s"] > 0.0
            assert summary["solve_s"] >= 0.0

    def test_parallel_run_populates_wall_seconds(self):
        result = synthesize(self._two_dim_spec(workers=2))
        assert len(result.edges) == 2
        for edge in result.edges:
            assert edge.wall_seconds > 0.0
            assert "wall_s" in edge.as_dict()

    def test_cli_solve_prints_timings(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "solve", "--spec", str(UNIVERSITY_SPEC),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "solve " in out
        assert "wall " in out


class TestStageRegistry:
    def test_builtins_listed(self):
        assert {
            "coloring", "capacity", "soft_capacity", "quota_coloring"
        } <= set(phase2_strategies())

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ReproError):
            phase2_strategy("quantum")

    def test_solver_rejects_unknown_strategy(self, census):
        data, ccs, dcs = census
        with pytest.raises(ReproError):
            CExtensionSolver().solve(
                data.persons_masked, data.housing,
                fk_column="hid", strategy="quantum",
            )

    def test_coloring_rejects_options(self, census):
        data, _, _ = census
        with pytest.raises(ReproError):
            CExtensionSolver().solve(
                data.persons_masked, data.housing,
                fk_column="hid",
                strategy_options={"max_per_key": 3},
            )

    def test_capacity_requires_max_per_key(self, census):
        data, _, _ = census
        with pytest.raises(ReproError):
            CExtensionSolver().solve(
                data.persons_masked, data.housing,
                fk_column="hid", strategy="capacity",
            )

    def test_solver_reaches_phase2_through_module_lookup(
        self, census, monkeypatch
    ):
        """``CExtensionSolver.solve`` runs Phase II through the runner
        that ``repro.core.synthesizer.phase2_strategy`` returns: the name
        perfbench wraps to time Phase II as one span."""
        calls = []
        lookup = synthesizer.phase2_strategy

        def counting(name):
            runner = lookup(name)

            def run(*args, **kwargs):
                calls.append(name)
                return runner(*args, **kwargs)

            return run

        monkeypatch.setattr(synthesizer, "phase2_strategy", counting)
        data, ccs, dcs = census
        result = CExtensionSolver().solve(
            data.persons_masked, data.housing,
            fk_column="hid", ccs=ccs[:3], dcs=dcs, strategy="capacity",
            strategy_options={"max_per_key": 3},
        )
        assert calls == ["capacity"]
        assert result.report.errors.dc_error == 0.0


class TestCli:
    def test_solve_with_spec_file(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "solve", "--spec", str(UNIVERSITY_SPEC),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 FK edges" in out
        assert (tmp_path / "out" / "Students.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()

    def test_generate_emits_runnable_spec(self, tmp_path, capsys):
        from repro.cli import main

        data_dir = tmp_path / "data"
        assert main([
            "generate", "--out", str(data_dir),
            "--households", "40", "--areas", "4",
            "--num-ccs", "10", "--seed", "5",
        ]) == 0
        assert "(0 skipped)" in capsys.readouterr().out
        assert (data_dir / "workload.toml").exists()
        assert main([
            "solve", "--spec", str(data_dir / "workload.toml"),
            "--out", str(tmp_path / "out"),
        ]) == 0
        assert (tmp_path / "out" / "persons.csv").exists()

    def test_legacy_capacity_flag(self, tmp_path, capsys):
        from repro.cli import main

        data_dir = tmp_path / "data"
        main([
            "generate", "--out", str(data_dir),
            "--households", "40", "--areas", "4",
            "--num-ccs", "5", "--seed", "5",
        ])
        capsys.readouterr()
        assert main([
            "solve",
            "--r1", str(data_dir / "persons.csv"),
            "--r2", str(data_dir / "housing.csv"),
            "--fk", "hid",
            "--r1-key", "pid", "--r2-key", "hid",
            "--constraints", str(data_dir / "constraints.txt"),
            "--out", str(tmp_path / "out"),
            "--capacity", "4",
        ]) == 0
        from repro.relational.csvio import read_csv_infer

        r1_hat = read_csv_infer(tmp_path / "out" / "r1_hat.csv")
        assert max(
            fk_usage_histogram(r1_hat, "hid").values()
        ) <= 4

    def test_spec_and_legacy_flags_exclusive(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "solve", "--spec", "x.toml", "--r1", "y.csv",
            "--out", str(tmp_path),
        ])
        assert code == 2
        assert "exclusive" in capsys.readouterr().err

    def test_solve_without_inputs_reports_error(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["solve", "--out", str(tmp_path)])
        assert code == 2
        assert "--spec" in capsys.readouterr().err

    def test_spec_rejects_capacity_flag(self, tmp_path, capsys):
        """--capacity must not be silently dropped when --spec is given."""
        from repro.cli import main

        code = main([
            "solve", "--spec", str(UNIVERSITY_SPEC),
            "--capacity", "2",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "--capacity" in capsys.readouterr().err
