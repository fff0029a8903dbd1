"""Self-application: the repo lints clean, and the F-series ratchet
actually guards the fingerprint classification."""

from __future__ import annotations

from pathlib import Path

from repro.core.config import SolverConfig
from repro.lint import Baseline, lint_paths
from repro.lint.checkers.config_drift import ConfigDriftChecker
from repro.spec.fingerprint import (
    NON_RESULT_OPTION_FIELDS,
    RESULT_OPTION_FIELDS,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
CONFIG_PY = REPO_ROOT / "src" / "repro" / "core" / "config.py"
FINGERPRINT_PY = REPO_ROOT / "src" / "repro" / "spec" / "fingerprint.py"


def test_repo_lints_clean_against_committed_baseline():
    baseline_path = REPO_ROOT / "lint-baseline.json"
    baseline = (
        Baseline.load(baseline_path) if baseline_path.exists() else None
    )
    report = lint_paths(
        [REPO_ROOT / "src"], base=REPO_ROOT, baseline=baseline
    )
    assert report.errors == []
    assert report.new == [], "\n".join(d.render() for d in report.new)
    assert report.stale_baseline == []


def test_classification_partitions_solver_config_exactly():
    fields = set(SolverConfig.__dataclass_fields__)
    classified = set(RESULT_OPTION_FIELDS) | set(NON_RESULT_OPTION_FIELDS)
    assert classified == fields
    assert not set(RESULT_OPTION_FIELDS) & set(NON_RESULT_OPTION_FIELDS)


def _drift_report(tmp_path, config_source, fingerprint_source):
    (tmp_path / "config.py").write_text(config_source)
    (tmp_path / "fingerprint.py").write_text(fingerprint_source)
    return lint_paths(
        [tmp_path],
        base=tmp_path,
        checkers=[ConfigDriftChecker()],
        respect_scopes=False,
    )


def test_deleting_a_result_option_entry_fails_f_series(tmp_path):
    fingerprint = FINGERPRINT_PY.read_text()
    entry = '    "marginals",\n'
    assert entry in fingerprint
    report = _drift_report(
        tmp_path, CONFIG_PY.read_text(), fingerprint.replace(entry, "", 1)
    )
    assert any(d.code == "F501" for d in report.new)
    assert any("marginals" in d.message for d in report.new)


def test_unclassified_new_config_field_fails_f_series(tmp_path):
    config = CONFIG_PY.read_text()
    anchor = "    marginals: str = "
    assert anchor in config
    config = config.replace(
        anchor, "    brand_new_knob: int = 0\n" + anchor, 1
    )
    report = _drift_report(tmp_path, config, FINGERPRINT_PY.read_text())
    assert any(
        d.code == "F501" and "brand_new_knob" in d.message
        for d in report.new
    )


def test_stale_classification_entry_fails_f_series(tmp_path):
    fingerprint = FINGERPRINT_PY.read_text()
    fingerprint = fingerprint.replace(
        '    "marginals",\n', '    "marginals",\n    "retired_knob",\n', 1
    )
    report = _drift_report(
        tmp_path, CONFIG_PY.read_text(), fingerprint
    )
    assert any(
        d.code == "F502" and "retired_knob" in d.message
        for d in report.new
    )


def test_current_sources_pass_f_series(tmp_path):
    report = _drift_report(
        tmp_path, CONFIG_PY.read_text(), FINGERPRINT_PY.read_text()
    )
    assert report.new == [], "\n".join(d.render() for d in report.new)
