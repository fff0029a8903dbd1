"""The end-to-end C-Extension solver (the paper's full pipeline).

:class:`CExtensionSolver` wires Phase I (hybrid view completion) into
Phase II (conflict-graph coloring) and evaluates the result:

>>> solver = CExtensionSolver()
>>> result = solver.solve(r1, r2, fk_column="hid", ccs=ccs, dcs=dcs)
>>> result.r1_hat          # R1 with the FK column imputed
>>> result.r2_hat          # R2, possibly with fresh tuples appended
>>> result.report          # CC/DC errors + per-stage timings

The guarantees match Propositions 4.7 / 5.5: all DCs hold exactly in
``r1_hat``; CCs are exact for intersection-free inputs and low-error
otherwise.

Phase II runs the strategy named by ``strategy`` (see
:mod:`repro.phase2.strategies`): ``"coloring"``, the default Algorithm
3/4 list coloring, or a capped variant such as ``"capacity"``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from repro.constraints.cc import CardinalityConstraint, validate_cc_set
from repro.constraints.dc import DenialConstraint
from repro.core.config import SolverConfig
from repro.core.metrics import ErrorReport, evaluate
from repro.errors import SchemaError
from repro.phase1.hybrid import Phase1Result, run_phase1
from repro.phase2.fk_assignment import Phase2Result
from repro.phase2.strategies import phase2_strategy
from repro.relational import join
from repro.relational.relation import Relation

__all__ = ["SolveReport", "CExtensionResult", "CExtensionSolver"]

logger = logging.getLogger(__name__)


@dataclass
class SolveReport:
    """Stage timings plus (optionally) the error report.

    ``wall_seconds`` is the edge's end-to-end wall clock — solve plus
    evaluation plus per-edge bookkeeping — measured wherever the solve
    actually ran (in the worker process for parallel traversals), while
    ``total_seconds`` is the pure Phase-I + Phase-II solve time.
    """

    phase1_seconds: float = 0.0
    phase2_seconds: float = 0.0
    evaluate_seconds: float = 0.0
    wall_seconds: float = 0.0
    errors: Optional[ErrorReport] = None

    @property
    def total_seconds(self) -> float:
        return self.phase1_seconds + self.phase2_seconds

    def breakdown(self) -> Dict[str, float]:
        """The Figure-13-style stage breakdown, in seconds."""
        return {
            "phase1": self.phase1_seconds,
            "phase2": self.phase2_seconds,
        }


@dataclass
class CExtensionResult:
    """Everything the pipeline produces."""

    r1_hat: Relation
    r2_hat: Relation
    fk_column: str
    phase1: Phase1Result
    phase2: Phase2Result
    report: SolveReport

    def join_view(self) -> Relation:
        """``R1̂ ⋈ R2̂`` — equals the Phase-I view (Proposition 5.5)."""
        return join.fk_join(self.r1_hat, self.r2_hat, self.fk_column)


class CExtensionSolver:
    """Two-phase solver for the C-Extension problem (Definition 2.6)."""

    def __init__(self, config: Optional[SolverConfig] = None) -> None:
        self.config = config or SolverConfig()

    def solve(
        self,
        r1: Relation,
        r2: Relation,
        *,
        fk_column: str,
        ccs: Sequence[CardinalityConstraint] = (),
        dcs: Sequence[DenialConstraint] = (),
        strategy: str = "coloring",
        strategy_options: Optional[Mapping[str, object]] = None,
    ) -> CExtensionResult:
        """Impute ``r1.fk_column`` under ``ccs`` and ``dcs``.

        ``r1`` may contain the FK column (its values are ignored and
        dropped) or omit it.  ``r2`` must declare a primary key.
        ``strategy`` names the Phase-II strategy to run (``"coloring"``
        by default; ``"capacity"`` takes a ``max_per_key`` option in
        ``strategy_options``).
        """
        config = self.config
        run_strategy = phase2_strategy(strategy)
        if r2.schema.key is None:
            raise SchemaError("R2 must declare a primary key column")
        if fk_column in r1.schema:
            r1 = r1.drop_column(fk_column)

        r1_attrs = list(r1.schema.nonkey_names)
        r2_attrs = [n for n in r2.schema.names if n != r2.schema.key]
        validate_cc_set(ccs, set(r1_attrs), set(r2_attrs))

        report = SolveReport()
        logger.info(
            "solving C-Extension: |R1|=%d, |R2|=%d, %d CCs, %d DCs",
            len(r1), len(r2), len(ccs), len(dcs),
        )

        started = time.perf_counter()
        phase1 = run_phase1(
            r1,
            r2,
            ccs,
            r1_attrs=r1_attrs,
            marginals=config.marginals,
            soft_ccs=config.soft_ccs,
            force_ilp=config.force_ilp,
            time_limit=config.time_limit,
            mip_gap=config.mip_gap,
        )
        report.phase1_seconds = time.perf_counter() - started
        logger.info(
            "phase I done in %.3fs: %d CCs via Algorithm 2, %d via the "
            "ILP, %d invalid rows",
            report.phase1_seconds,
            phase1.stats.num_s1,
            phase1.stats.num_s2,
            phase1.stats.invalid_rows,
        )

        started = time.perf_counter()
        phase2 = run_strategy(
            r1,
            r2,
            dcs,
            phase1.assignment,
            phase1.catalog,
            fk_column,
            ccs=ccs,
            options=strategy_options,
            partitioned=config.partitioned_coloring,
        )
        report.phase2_seconds = time.perf_counter() - started
        logger.info(
            "phase II done in %.3fs: %d partitions, %d conflict edges, "
            "%d fresh R2 tuples",
            report.phase2_seconds,
            phase2.stats.num_partitions,
            phase2.stats.num_edges,
            phase2.stats.num_new_r2_tuples,
        )

        if config.evaluate:
            started = time.perf_counter()
            report.errors = evaluate(
                phase2.r1_hat,
                phase2.r2_hat,
                fk_column,
                ccs,
                dcs,
            )
            report.evaluate_seconds = time.perf_counter() - started

        return CExtensionResult(
            r1_hat=phase2.r1_hat,
            r2_hat=phase2.r2_hat,
            fk_column=fk_column,
            phase1=phase1,
            phase2=phase2,
            report=report,
        )
