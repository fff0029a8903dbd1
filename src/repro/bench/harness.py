"""Experiment harness: run one (dataset, algorithm) cell and collect rows.

Each paper figure is a set of cells; the harness runs a cell and returns
an :class:`ExperimentRow` with the error and timing columns the paper
reports.  The pytest-benchmark files under ``benchmarks/`` call into this
module and print paper-style tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.baselines.arasu import baseline_solve
from repro.constraints.cc import CardinalityConstraint
from repro.constraints.dc import DenialConstraint
from repro.core.config import SolverConfig
from repro.datagen.census import CensusData
from repro.spec import SpecBuilder, synthesize

__all__ = ["ExperimentRow", "census_spec", "run_hybrid", "run_baseline"]


@dataclass
class ExperimentRow:
    """One table row: algorithm, errors and stage timings."""

    algorithm: str
    scale: str = ""
    median_cc_error: float = 0.0
    mean_cc_error: float = 0.0
    max_cc_error: float = 0.0
    dc_error: float = 0.0
    phase1_seconds: float = 0.0
    phase2_seconds: float = 0.0
    pairwise_seconds: float = 0.0
    recursion_seconds: float = 0.0
    ilp_seconds: float = 0.0
    coloring_seconds: float = 0.0
    new_r2_tuples: int = 0
    #: Work counts (deterministic, unlike the timings): Phase II's
    #: conflict graph and the Phase-I ILP's size (0 when no ILP ran).
    conflict_edges: int = 0
    partitions: int = 0
    ilp_variables: int = 0
    per_cc_errors: List[float] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return self.phase1_seconds + self.phase2_seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "scale": self.scale,
            "median_cc_error": round(self.median_cc_error, 4),
            "mean_cc_error": round(self.mean_cc_error, 4),
            "dc_error": round(self.dc_error, 4),
            "phase1_s": round(self.phase1_seconds, 4),
            "phase2_s": round(self.phase2_seconds, 4),
            "total_s": round(self.total_seconds, 4),
        }


def census_spec(
    data: CensusData,
    ccs: Sequence[CardinalityConstraint] = (),
    dcs: Sequence[DenialConstraint] = (),
    config: Optional[SolverConfig] = None,
    capacity: Optional[int] = None,
):
    """The census workload as a :class:`SynthesisSpec` (shared by benches)."""
    builder = (
        SpecBuilder("census-bench")
        .relation("persons", data=data.persons_masked, key="pid")
        .relation("housing", data=data.housing, key="hid")
        .edge("persons", "hid", "housing",
              ccs=list(ccs), dcs=list(dcs), capacity=capacity)
        .fact_table("persons")
    )
    if config is not None:
        builder.options(config)
    return builder.build()


def run_hybrid(
    data: CensusData,
    ccs: Sequence[CardinalityConstraint],
    dcs: Sequence[DenialConstraint],
    scale: str = "",
    config: Optional[SolverConfig] = None,
) -> ExperimentRow:
    """Run the paper's hybrid pipeline on one dataset.

    Goes through the unified :func:`repro.synthesize` front door, so the
    bench exercises exactly the production entrypoint.
    """
    spec = census_spec(data, ccs, dcs, config or SolverConfig())
    result = synthesize(spec)
    _, step = result.steps[0]
    errors = step.report.errors
    p1 = step.phase1.stats
    p2 = step.phase2.stats
    return ExperimentRow(
        algorithm="hybrid",
        scale=scale,
        median_cc_error=errors.median_cc_error,
        mean_cc_error=errors.mean_cc_error,
        max_cc_error=errors.max_cc_error,
        dc_error=errors.dc_error,
        phase1_seconds=step.report.phase1_seconds,
        phase2_seconds=step.report.phase2_seconds,
        pairwise_seconds=p1.pairwise_seconds,
        recursion_seconds=p1.recursion_seconds,
        ilp_seconds=p1.ilp_seconds,
        coloring_seconds=p2.edge_seconds + p2.coloring_seconds,
        new_r2_tuples=p2.num_new_r2_tuples,
        conflict_edges=p2.num_edges,
        partitions=p2.num_partitions,
        ilp_variables=p1.ilp.num_variables if p1.ilp else 0,
        per_cc_errors=list(errors.per_cc),
    )


def run_baseline(
    data: CensusData,
    ccs: Sequence[CardinalityConstraint],
    dcs: Sequence[DenialConstraint],
    scale: str = "",
    with_marginals: bool = False,
    seed: int = 0,
) -> ExperimentRow:
    """Run one of the two baselines on one dataset."""
    result = baseline_solve(
        data.persons_masked,
        data.housing,
        fk_column="hid",
        ccs=ccs,
        dcs=dcs,
        with_marginals=with_marginals,
        seed=seed,
    )
    name = "baseline+marginals" if with_marginals else "baseline"
    return ExperimentRow(
        algorithm=name,
        scale=scale,
        median_cc_error=result.errors.median_cc_error,
        mean_cc_error=result.errors.mean_cc_error,
        max_cc_error=result.errors.max_cc_error,
        dc_error=result.errors.dc_error,
        phase1_seconds=result.phase1_seconds,
        phase2_seconds=result.phase2_seconds,
        ilp_seconds=result.ilp.solve_seconds if result.ilp else 0.0,
        ilp_variables=result.ilp.num_variables if result.ilp else 0,
        per_cc_errors=list(result.errors.per_cc),
    )
