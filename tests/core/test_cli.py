"""The repro-synth command-line interface."""

from pathlib import Path

import pytest

from repro.cli import dump_constraints, load_constraints, main
from repro.constraints.parser import parse_cc, parse_dc
from repro.errors import ParseError


class TestConstraintsFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "constraints.txt"
        ccs = [
            parse_cc("|Rel == 'Owner' & Area == 'X'| = 4"),
            parse_cc("|Age in [0, 10] & Area == 'X' "
                     "or Age in [60, 99] & Area == 'Y'| = 5"),
        ]
        dcs = [
            parse_dc("not(t1.Rel == 'Owner' & t2.Rel == 'Owner')"),
            parse_dc("not(t1.Rel == 'Owner' & t2.Age < t1.Age - 50)"),
        ]
        written = dump_constraints(path, ccs, dcs)
        assert written == 2
        loaded_ccs, loaded_dcs = load_constraints(path)
        assert len(loaded_ccs) == 2 and len(loaded_dcs) == 2
        assert loaded_ccs[0].target == 4
        assert not loaded_ccs[1].is_conjunctive

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# comment\n\ncc: |Age in [0, 5] & Area == 'X'| = 1\n")
        ccs, dcs = load_constraints(path)
        assert len(ccs) == 1 and not dcs

    def test_bad_prefix_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("constraint: whatever\n")
        with pytest.raises(ParseError):
            load_constraints(path)

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("cc: not a cc\n")
        with pytest.raises(ParseError) as excinfo:
            load_constraints(path)
        assert ":1:" in str(excinfo.value)


class TestPipelineCommands:
    def test_generate_solve_evaluate(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        out_dir = tmp_path / "out"

        assert main([
            "generate", "--out", str(data_dir),
            "--households", "60", "--areas", "4",
            "--num-ccs", "20", "--seed", "3",
        ]) == 0
        assert (data_dir / "persons.csv").exists()
        assert (data_dir / "housing.csv").exists()
        assert (data_dir / "constraints.txt").exists()

        assert main([
            "solve",
            "--r1", str(data_dir / "persons.csv"),
            "--r2", str(data_dir / "housing.csv"),
            "--fk", "hid",
            "--r1-key", "pid", "--r2-key", "hid",
            "--constraints", str(data_dir / "constraints.txt"),
            "--out", str(out_dir),
        ]) == 0
        assert (out_dir / "r1_hat.csv").exists()
        assert (out_dir / "r2_hat.csv").exists()
        solve_output = capsys.readouterr().out
        assert "DC error 0.0000" in solve_output

        assert main([
            "evaluate",
            "--r1", str(out_dir / "r1_hat.csv"),
            "--r2", str(out_dir / "r2_hat.csv"),
            "--fk", "hid",
            "--r1-key", "pid", "--r2-key", "hid",
            "--constraints", str(data_dir / "constraints.txt"),
        ]) == 0
        eval_output = capsys.readouterr().out
        assert "dc_error: 0.0000" in eval_output

    def test_missing_file_reports_error(self, tmp_path, capsys):
        code = main([
            "solve",
            "--r1", str(tmp_path / "absent.csv"),
            "--r2", str(tmp_path / "absent2.csv"),
            "--fk", "hid",
            "--r2-key", "hid",
            "--constraints", str(tmp_path / "absent3.txt"),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_csv_ref_reports_error_not_traceback(
        self, tmp_path, capsys
    ):
        # A spec whose csv ref resolves outside the spec directory to
        # something unreadable (here: a directory) must exit with the
        # CLI's clean error contract, not a raw OSError traceback.
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        (tmp_path / "outside").mkdir()
        (spec_dir / "bad.toml").write_text(
            'name = "bad"\n'
            'fact_table = "r1"\n'
            "[[relations]]\n"
            'name = "r1"\n'
            'key = "id"\n'
            'csv = "../outside"\n'
            "[[relations]]\n"
            'name = "r2"\n'
            'key = "id"\n'
            'csv = "missing.csv"\n'
            "[[edges]]\n"
            'child = "r1"\n'
            'column = "r2_id"\n'
            'parent = "r2"\n'
        )
        code = main([
            "solve",
            "--spec", str(spec_dir / "bad.toml"),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "relation 'r1'" in err
        assert "Traceback" not in err

    def test_bad_strategy_option_reports_error_not_traceback(
        self, tmp_path, capsys
    ):
        # A non-numeric soft_capacity penalty used to escape as a raw
        # ValueError (exit 1) once the edge was being solved.
        spec = tmp_path / "bad.toml"
        spec.write_text(
            'name = "bad"\n'
            "[[relations]]\n"
            'name = "r1"\n'
            'key = "pid"\n'
            "columns = { pid = [1, 2], Age = [3, 4] }\n"
            "[[relations]]\n"
            'name = "r2"\n'
            'key = "hid"\n'
            'columns = { hid = [1], Area = ["X"] }\n'
            "[[edges]]\n"
            'child = "r1"\n'
            'column = "hid"\n'
            'parent = "r2"\n'
            "capacity = 2\n"
            'strategy = "soft_capacity"\n'
            "[edges.options]\n"
            'penalty = "high"\n'
        )
        code = main(["solve", "--spec", str(spec),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "'penalty' must be a number" in err
        assert not (tmp_path / "out").exists()

    def test_mistyped_solver_option_reports_error_not_traceback(
        self, tmp_path, capsys
    ):
        # A string chunk_rows used to escape as a raw TypeError (exit 1)
        # from SolverConfig's range check.
        spec = tmp_path / "bad.toml"
        spec.write_text(
            "[options]\n"
            'chunk_rows = "8"\n'
            "[[relations]]\n"
            'name = "r1"\n'
            'key = "pid"\n'
            "columns = { pid = [1, 2], Age = [3, 4] }\n"
            "[[relations]]\n"
            'name = "r2"\n'
            'key = "hid"\n'
            'columns = { hid = [1], Area = ["X"] }\n'
            "[[edges]]\n"
            'child = "r1"\n'
            'column = "hid"\n'
            'parent = "r2"\n'
        )
        code = main(["solve", "--spec", str(spec),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "chunk_rows must be an int" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "options, solver, message",
        [
            ("partitioned_coloring = false", "", "unknown solver options"),
            ("time_limit = nan", "", "time_limit must be positive"),
            ("", "solver = { time_limit = nan }", "time_limit must be"),
        ],
        ids=["retired-partitioned-coloring", "nan-limit", "nan-edge-limit"],
    )
    def test_rejected_option_exits_2(
        self, tmp_path, capsys, options, solver, message
    ):
        spec = tmp_path / "bad.toml"
        spec.write_text(
            f"[options]\n{options}\n"
            "[[relations]]\n"
            'name = "r1"\n'
            'key = "pid"\n'
            "columns = { pid = [1, 2], Age = [3, 4] }\n"
            "[[relations]]\n"
            'name = "r2"\n'
            'key = "hid"\n'
            'columns = { hid = [1], Area = ["X"] }\n'
            "[[edges]]\n"
            'child = "r1"\n'
            'column = "hid"\n'
            'parent = "r2"\n'
            f"{solver}\n"
        )
        code = main(["solve", "--spec", str(spec),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert message in err
        assert not (tmp_path / "out").exists()


class TestCsvInference:
    def test_read_csv_infer(self, tmp_path):
        from repro.relational.csvio import read_csv_infer
        from repro.relational.types import Dtype

        path = tmp_path / "t.csv"
        path.write_text("id,name,score\n1,alice,10\n2,bob,-3\n")
        relation = read_csv_infer(path, key="id")
        assert relation.schema.dtype("id") is Dtype.INT
        assert relation.schema.dtype("name") is Dtype.STR
        assert relation.schema.dtype("score") is Dtype.INT
        assert relation.schema.key == "id"
        assert relation.row(1) == {"id": 2, "name": "bob", "score": -3}
