"""Inline suppression semantics."""

from __future__ import annotations

import textwrap

from repro.lint import lint_paths
from repro.lint.suppress import collect_suppressions

BAD_RANDOM = "import random\n\n\ndef f():\n    return random.random()"


def _lint_source(tmp_path, source):
    path = tmp_path / "core" / "mod.py"
    path.parent.mkdir(exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_paths([path], base=tmp_path, respect_scopes=False)


def test_unsuppressed_fires(tmp_path):
    report = _lint_source(tmp_path, BAD_RANDOM)
    assert [d.code for d in report.new] == ["D102"]
    assert report.suppressed == 0


def test_line_suppression_silences_exactly_that_code(tmp_path):
    report = _lint_source(
        tmp_path,
        BAD_RANDOM + "  # repro-lint: disable=D102",
    )
    assert report.new == []
    assert report.suppressed == 1


def test_line_suppression_for_other_code_does_not_apply(tmp_path):
    report = _lint_source(
        tmp_path,
        BAD_RANDOM + "  # repro-lint: disable=D103",
    )
    assert [d.code for d in report.new] == ["D102"]


def test_bare_disable_silences_every_code_on_the_line(tmp_path):
    report = _lint_source(
        tmp_path,
        BAD_RANDOM + "  # repro-lint: disable",
    )
    assert report.new == []
    assert report.suppressed == 1


def test_disable_file_in_header(tmp_path):
    report = _lint_source(
        tmp_path,
        '"""Docstring."""\n# repro-lint: disable-file=D102\n' + BAD_RANDOM,
    )
    assert report.new == []
    assert report.suppressed == 1


def test_disable_file_after_first_statement_is_ignored(tmp_path):
    report = _lint_source(
        tmp_path,
        BAD_RANDOM + "\n# repro-lint: disable-file=D102\n",
    )
    assert [d.code for d in report.new] == ["D102"]


def test_marker_inside_string_does_not_suppress():
    supp = collect_suppressions(
        'text = "# repro-lint: disable=D102"\n'
    )
    assert not supp.by_line
    assert not supp.file_wide


def test_multiple_codes_in_one_marker():
    supp = collect_suppressions("x = 1  # repro-lint: disable=D102, S301\n")
    assert supp.by_line[1] == {"D102", "S301"}
