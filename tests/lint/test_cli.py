"""The ``repro-synth lint`` / ``python -m repro.lint`` surface."""

from __future__ import annotations

from pathlib import Path

from repro.cli import main as synth_main
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"
BAD = "import random\n\n\ndef f():\n    return random.random()\n"


def test_fixtures_corpus_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert lint_main([str(FIXTURES), "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "new finding(s)" in out


def test_clean_tree_exits_zero(tmp_path, monkeypatch, capsys):
    target = tmp_path / "pkg"
    target.mkdir()
    (target / "ok.py").write_text("X = 1\n")
    monkeypatch.chdir(tmp_path)
    assert lint_main([str(target)]) == 0
    assert "0 new finding(s)" in capsys.readouterr().out


def test_update_baseline_then_clean(tmp_path, monkeypatch, capsys):
    target = tmp_path / "core"
    target.mkdir()
    (target / "mod.py").write_text(BAD)
    monkeypatch.chdir(tmp_path)

    assert lint_main([str(target), "--no-baseline"]) == 1
    assert lint_main([str(target), "--update-baseline"]) == 0
    assert (tmp_path / "lint-baseline.json").exists()
    capsys.readouterr()
    assert lint_main([str(target)]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out


def test_list_checks(capsys):
    assert lint_main(["--list-checks"]) == 0
    out = capsys.readouterr().out
    for code in ("D101", "S301", "P401", "F501"):
        assert code in out


def test_github_annotations(tmp_path, monkeypatch, capsys):
    target = tmp_path / "core"
    target.mkdir()
    (target / "mod.py").write_text(BAD)
    monkeypatch.chdir(tmp_path)
    assert lint_main([str(target), "--no-baseline", "--github"]) == 1
    out = capsys.readouterr().out
    assert "::error file=" in out
    assert "repro-lint D102" in out


def test_missing_path_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert lint_main(["no/such/path.txt"]) == 2
    assert "error:" in capsys.readouterr().out


def test_repro_synth_lint_subcommand(tmp_path, monkeypatch, capsys):
    target = tmp_path / "pkg"
    target.mkdir()
    (target / "ok.py").write_text("X = 1\n")
    monkeypatch.chdir(tmp_path)
    assert synth_main(["lint", str(target)]) == 0
    assert "0 new finding(s)" in capsys.readouterr().out


def test_show_baselined_renders_tag(tmp_path, monkeypatch, capsys):
    target = tmp_path / "core"
    target.mkdir()
    (target / "mod.py").write_text(BAD)
    monkeypatch.chdir(tmp_path)
    lint_main([str(target), "--update-baseline"])
    capsys.readouterr()
    assert lint_main([str(target), "--show-baselined"]) == 0
    assert "[baselined]" in capsys.readouterr().out
