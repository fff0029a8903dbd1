"""repro-lint — AST-based invariant checks for this codebase.

The system rests on invariants that were historically enforced only at
runtime: byte-identity across storage backends and worker counts,
process-pool payload purity, store-lifetime ownership across worker
boundaries, and the fingerprint option allowlist of the service cache.
This package checks them *statically*, on every push, before the
nightly fuzz lane runs:

* **D-series** — determinism: unordered ``set`` iteration feeding
  results, unseeded randomness, wall-clock/env/locale reads, unsorted
  directory listings inside the deterministic core
  (``relational/``, ``phase1/``, ``phase2/``, ``core/``,
  ``fuzz/specgen.py``);
* **S-series** — store lifetime: returning or committing a relation
  whose column store is rooted in a ``TemporaryDirectory`` (the exact
  bug class the PR 9 fuzzer found in ``commit_edge``);
* **P-series** — pool-payload purity: only picklable module-level
  callables may ship to a ``ProcessPoolExecutor``;
* **F-series** — config drift: every ``SolverConfig`` field classified
  as result-affecting (``RESULT_OPTION_FIELDS``) or explicitly excluded
  (``NON_RESULT_OPTION_FIELDS``), and spec dataclass fields in sync
  with their ``from_dict`` key sets.

Diagnostics carry ``path:line:col CODE message``; a finding is silenced
inline with ``# repro-lint: disable=CODE`` on its line (or
``disable-file=CODE`` in a module-top comment), and pre-existing
findings live in a committed baseline so the tool lands clean and
ratchets.  Run it as ``repro-synth lint`` or ``python -m repro.lint``.
"""

from __future__ import annotations

from repro.lint.baseline import Baseline
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import LintReport, lint_paths
from repro.lint.registry import all_checkers, checker_codes

__all__ = [
    "Baseline",
    "Diagnostic",
    "LintReport",
    "all_checkers",
    "checker_codes",
    "lint_paths",
]
