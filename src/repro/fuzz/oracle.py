"""The differential oracle: one spec, every execution mode, one verdict.

Every cell of the engine matrix — ``{storage} × {workers}`` — is
contractually byte-identical (``Database.identical_to``), which
makes the matrix itself the test oracle: run a spec through
:func:`repro.synthesize` in several cells and *any* disagreement is a
bug, with no ground truth required.  On top of the identity check the
oracle asserts:

* **fidelity** — synthesis assigns FK columns but must not disturb any
  pre-existing column, so the shared marginals of the input and output
  fact table must match exactly (:func:`repro.bench.fidelity.max_marginal_tvd`
  ``== 0``);
* **rollback** — an injected solver fault (:mod:`repro.fuzz.faults`)
  must propagate out of ``synthesize()`` and leave no state behind (a
  re-run still matches the baseline);
* **resume** — a cache-backed :func:`repro.service.engine.run_spec`
  killed by a fault on its last edge must, re-run against the same
  cache, splice every checkpointed edge (``cache_hits == edges - 1``)
  and finish byte-identical to the baseline.

Outcomes: ``ok``, ``infeasible`` (every cell agrees the spec has no
solution — a legitimate verdict, not a failure), ``divergence``,
``crash``, ``infeasible-disagreement``.  A failing report records a
machine-readable ``check`` string; the minimizer's shrink predicate is
"the re-run oracle fails with the same ``check``".
"""

from __future__ import annotations

import random
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.fidelity import max_marginal_tvd
from repro.errors import InfeasibleError
from repro.fuzz.faults import InjectedFault, chaos_edge, failing_solver
from repro.relational.database import Database
from repro.service.cache import EdgeCache
from repro.service.engine import run_spec
from repro.spec.api import synthesize
from repro.spec.model import SynthesisSpec

__all__ = [
    "BASELINE",
    "OracleCell",
    "CellResult",
    "OracleReport",
    "sample_cells",
    "classify_cells",
    "run_oracle",
]

#: Rows-per-chunk for mmap cells — tiny, so even the smallest generated
#: spec spans several chunks and exercises the chunk-merge kernels.
_FUZZ_CHUNK_ROWS = 7


@dataclass(frozen=True)
class OracleCell:
    """One point of the engine matrix."""

    storage: str
    workers: int

    @property
    def cell_id(self) -> str:
        return f"{self.storage}/w{self.workers}"

    def overrides(self) -> Dict[str, object]:
        """The ``SolverConfig`` overrides that select this cell."""
        out: Dict[str, object] = {
            "storage": self.storage,
            "workers": self.workers,
        }
        if self.storage == "mmap":
            out["chunk_rows"] = _FUZZ_CHUNK_ROWS
        return out


#: The reference cell every other cell is compared against.
BASELINE = OracleCell(storage="numpy", workers=0)


@dataclass
class CellResult:
    """What one cell did with the spec."""

    cell: OracleCell
    status: str  # "ok" | "infeasible" | "crash"
    error: str = ""
    database: Optional[Database] = None
    wall_seconds: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "cell": self.cell.cell_id,
            "status": self.status,
            "error": self.error,
            "wall_s": round(self.wall_seconds, 4),
        }


@dataclass
class OracleReport:
    """The oracle's verdict on one spec."""

    name: str
    #: ok | infeasible | divergence | crash | infeasible-disagreement
    outcome: str
    check: str = ""
    detail: str = ""
    cells: List[Dict[str, object]] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def failed(self) -> bool:
        return self.outcome not in ("ok", "infeasible")

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "outcome": self.outcome,
            "check": self.check,
            "detail": self.detail,
            "cells": list(self.cells),
            "wall_s": round(self.wall_seconds, 4),
        }


def sample_cells(
    profile: str, seed: int, max_cells: int = 4
) -> List[OracleCell]:
    """The baseline plus up to ``max_cells - 1`` sampled matrix cells.

    Sampling is seeded by ``(profile, seed)`` alone, so the replay
    command printed for a failure re-runs exactly the same cells.
    """
    candidates = [
        OracleCell(storage, workers)
        for storage in ("numpy", "mmap")
        for workers in (0, 2)
    ]
    candidates = [cell for cell in candidates if cell != BASELINE]
    rng = random.Random(f"repro-fuzz-cells:{profile}:{seed}")
    rng.shuffle(candidates)
    return [BASELINE] + candidates[: max(0, max_cells - 1)]


def _run_cell(
    spec: SynthesisSpec, cell: OracleCell, chaos_on: Optional[int]
) -> CellResult:
    started = time.perf_counter()
    try:
        if chaos_on is not None and cell != BASELINE:
            with chaos_edge(chaos_on):
                result = synthesize(spec.with_options(**cell.overrides()))
        else:
            result = synthesize(spec.with_options(**cell.overrides()))
        status, error, database = "ok", "", result.database
    except InfeasibleError as exc:
        status, error, database = "infeasible", str(exc), None
    except Exception as exc:  # noqa: BLE001 — any escape is the finding
        status = "crash"
        error = f"{type(exc).__name__}: {exc}"
        database = None
    return CellResult(
        cell=cell,
        status=status,
        error=error,
        database=database,
        wall_seconds=time.perf_counter() - started,
    )


def classify_cells(
    results: Sequence[CellResult],
) -> Tuple[str, str, str]:
    """``(outcome, check, detail)`` for a list of cell results.

    ``results[0]`` is the baseline.  Divergence/crash checks name the
    offending cell so a minimized repro can re-assert the *same* failure
    rather than any failure.
    """
    baseline = results[0]
    if baseline.status == "crash":
        return "crash", f"crash:{baseline.cell.cell_id}", baseline.error
    statuses = {result.status for result in results}
    if "infeasible" in statuses and ("ok" in statuses or "crash" in statuses):
        agree = [r.cell.cell_id for r in results if r.status == "infeasible"]
        differ = [r.cell.cell_id for r in results if r.status != "infeasible"]
        return (
            "infeasible-disagreement",
            f"infeasible-disagreement:{differ[0]}",
            f"infeasible on {agree}, not on {differ}",
        )
    if statuses == {"infeasible"}:
        return "infeasible", "", baseline.error
    for result in results[1:]:
        if result.status == "crash":
            return "crash", f"crash:{result.cell.cell_id}", result.error
    for result in results[1:]:
        if not result.database.identical_to(baseline.database):
            return (
                "divergence",
                f"identical:{result.cell.cell_id}",
                f"cell {result.cell.cell_id} output differs from baseline "
                f"{baseline.cell.cell_id}",
            )
    return "ok", "", ""


def _check_fidelity(
    spec: SynthesisSpec, baseline: Database
) -> Tuple[str, str]:
    fact = spec.fact()
    reference = spec.to_database().relation(fact)
    synthesized = baseline.relation(fact)
    tvd = max_marginal_tvd(reference, synthesized)
    if tvd > 0.0:
        return (
            "fidelity",
            f"fact table {fact!r} marginals disturbed (max TVD {tvd:.4f})",
        )
    return "", ""


def _check_rollback(
    spec: SynthesisSpec, baseline: Database, fail_on: int
) -> Tuple[str, str]:
    try:
        with failing_solver(fail_on):
            synthesize(spec)
    except InjectedFault:
        pass
    except Exception as exc:  # noqa: BLE001
        return (
            "fault-rollback",
            f"injected fault surfaced as {type(exc).__name__}: {exc}",
        )
    else:
        return "fault-rollback", "injected solver fault did not propagate"
    retry = synthesize(spec)
    if not retry.database.identical_to(baseline):
        return (
            "fault-rollback",
            "output after a rolled-back fault differs from baseline",
        )
    return "", ""


def _check_resume(
    spec: SynthesisSpec, baseline: Database, total_edges: int
) -> Tuple[str, str]:
    fail_on = total_edges - 1
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-cache-") as tmp:
        cache = EdgeCache(tmp)
        try:
            with failing_solver(fail_on):
                run_spec(spec, cache=cache)
        except InjectedFault:
            pass
        except Exception as exc:  # noqa: BLE001
            return (
                "fault-resume",
                f"faulted service run raised {type(exc).__name__}: {exc}",
            )
        else:
            return "fault-resume", "injected solver fault did not propagate"
        resumed = run_spec(spec, cache=cache)
        hits = sum(1 for report in resumed.edges if report.cache_hit)
        if hits != fail_on:
            return (
                "fault-resume",
                f"expected {fail_on} checkpoint splices on resume, got {hits}",
            )
        if not resumed.database.identical_to(baseline):
            return (
                "fault-resume",
                "resumed service output differs from baseline",
            )
    return "", ""


def run_oracle(
    spec: SynthesisSpec,
    cells: Optional[Sequence[OracleCell]] = None,
    *,
    check_faults: bool = True,
    chaos_on: Optional[int] = None,
) -> OracleReport:
    """Run one spec through the full differential harness.

    ``cells`` defaults to the entire available matrix (the baseline
    first; pass :func:`sample_cells` output to bound work).  ``chaos_on``
    deterministically corrupts that edge's FK assignment in every
    *non-baseline* cell — the self-test hook behind ``repro-synth fuzz
    --chaos-edge``, which must always be caught as a divergence.

    Fault legs run in-process against the baseline configuration and are
    skipped for specs the baseline already found infeasible.
    """
    started = time.perf_counter()
    base = spec.with_options(**BASELINE.overrides())
    if cells is None:
        cells = sample_cells(spec.name or "spec", 0, max_cells=99)
    results = [_run_cell(base, cell, chaos_on) for cell in cells]
    outcome, check, detail = classify_cells(results)

    if outcome == "ok":
        baseline_db = results[0].database
        check, detail = _check_fidelity(base, baseline_db)
        if check:
            outcome = "divergence"
    if outcome == "ok" and check_faults:
        total_edges = len(spec.edges)
        check, detail = _check_rollback(
            base, baseline_db, fail_on=min(1, total_edges - 1)
        )
        if not check:
            check, detail = _check_resume(base, baseline_db, total_edges)
        if check:
            outcome = "crash"

    return OracleReport(
        name=spec.name or "spec",
        outcome=outcome,
        check=check,
        detail=detail,
        cells=[result.to_dict() for result in results],
        wall_seconds=time.perf_counter() - started,
    )
