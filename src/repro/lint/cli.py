"""The ``repro-lint`` command line: ``repro-synth lint`` and
``python -m repro.lint`` share this runner.

Exit status: 0 when nothing new is found (baselined findings do not
fail the run — they ratchet), 1 when there are new findings, parse
errors, or ``--update-baseline`` was asked to shrink a stale baseline,
2 on usage errors.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.baseline import Baseline
from repro.lint.engine import LintReport, format_report, lint_paths
from repro.lint.registry import checker_codes

__all__ = ["build_parser", "run_lint"]

DEFAULT_BASELINE = "lint-baseline.json"


def build_parser(
    parser: Optional[argparse.ArgumentParser] = None,
) -> argparse.ArgumentParser:
    """The ``lint`` argument surface; reusable as a subparser."""
    if parser is None:
        parser = argparse.ArgumentParser(
            prog="repro-lint",
            description="repro's own static-analysis suite "
            "(determinism, store lifetime, pool payloads, config "
            "drift)",
        )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help="baseline file of accepted findings "
        f"(default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline; report every finding as new",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to the current findings and exit 0",
    )
    parser.add_argument(
        "--show-baselined",
        action="store_true",
        help="also print findings covered by the baseline",
    )
    parser.add_argument(
        "--list-checks",
        action="store_true",
        help="list every check code and exit",
    )
    parser.add_argument(
        "--github",
        action="store_true",
        help="emit GitHub Actions ::error annotations for new findings",
    )
    return parser


def _github_annotations(report: LintReport) -> List[str]:
    lines = []
    for diag in report.new:
        lines.append(
            f"::error file={diag.path},line={diag.line},"
            f"col={diag.col},title=repro-lint {diag.code}::"
            f"{diag.code} {diag.message}"
        )
    return lines


def run_lint(
    args: argparse.Namespace,
    *,
    base: Optional[Path] = None,
) -> int:
    """Execute one lint run; returns the process exit status."""
    if args.list_checks:
        for code, description in checker_codes().items():
            print(f"{code}  {description}")
        return 0

    baseline: Optional[Baseline] = None
    baseline_path = Path(args.baseline)
    if not args.no_baseline and not args.update_baseline:
        if baseline_path.exists():
            baseline = Baseline.load(baseline_path)

    try:
        report = lint_paths(args.paths, base=base, baseline=baseline)
    except FileNotFoundError as exc:
        print(f"error: {exc}")
        return 2

    if args.update_baseline:
        Baseline.from_findings(report.new).save(baseline_path)
        print(
            f"repro-lint: baseline rewritten with "
            f"{len(report.new)} finding(s) -> {baseline_path}"
        )
        return 0

    print(format_report(report, show_baselined=args.show_baselined))
    if args.github:
        for line in _github_annotations(report):
            print(line)
    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run_lint(build_parser().parse_args(argv))
