"""The known-bad corpus: every check fires exactly where annotated.

Each fixture file marks its expected findings with a trailing
``# expect: CODE[,CODE]`` comment; the tests diff the engine's output
against those annotations, so a checker that under- or over-fires on
the corpus fails loudly with the exact line.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.lint import checker_codes, lint_paths

FIXTURES = Path(__file__).parent / "fixtures"

_EXPECT = re.compile(r"#\s*expect:\s*(?P<codes>[A-Z0-9_,\s]+)")

FIXTURE_FILES = sorted(
    p.relative_to(FIXTURES).as_posix() for p in FIXTURES.rglob("*.py")
)


def expected_findings(path: Path):
    """``{(line, code)}`` parsed from the fixture's annotations."""
    expected = set()
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        match = _EXPECT.search(line)
        if match:
            for code in match.group("codes").split(","):
                expected.add((lineno, code.strip()))
    return expected


@pytest.mark.parametrize("name", FIXTURE_FILES)
def test_fixture_matches_annotations(name):
    path = FIXTURES / name
    report = lint_paths([path], base=FIXTURES, respect_scopes=False)
    assert not report.errors
    got = {(d.line, d.code) for d in report.new}
    assert got == expected_findings(path)


def test_corpus_covers_every_registered_code():
    report = lint_paths([FIXTURES], base=FIXTURES, respect_scopes=False)
    fired = {d.code for d in report.new}
    assert fired == set(checker_codes())


def test_scoped_run_still_fires_every_family():
    """The CLI lints with scopes on; the corpus layout (determinism
    fixture under ``core/``) must keep every family firing anyway."""
    report = lint_paths([FIXTURES], base=FIXTURES, respect_scopes=True)
    families = {d.code[0] for d in report.new}
    assert families == {"D", "S", "P", "F"}
    assert not report.ok
