"""The unified synthesis front door: ``synthesize(spec)``.

One entrypoint executes any workload a :class:`SynthesisSpec` can
describe — the paper's two-table C-Extension, the Section 5 snowflake
traversal, and capacity-capped edges — by planning the FK-edge order and
solving each edge with its Phase-II strategy.  The result carries the
completed database, per-edge reports and a JSON-serialisable summary,
whatever pipeline ran underneath.
"""

from __future__ import annotations

import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.core.metrics import ErrorReport
from repro.core.snowflake import (
    EdgeConstraints,
    SnowflakeResult,
    SnowflakeSynthesizer,
)
from repro.core.synthesizer import CExtensionResult
from repro.relational.database import Database, ForeignKey
from repro.relational.relation import Relation
from repro.spec.model import SynthesisSpec

__all__ = [
    "EdgeReport",
    "SynthesisResult",
    "edge_constraint_map",
    "edge_report",
    "spill_guard",
    "synthesis_result",
    "synthesize",
]


@dataclass
class EdgeReport:
    """What happened on one FK edge of the workload."""

    child: str
    column: str
    parent: str
    strategy: str
    num_ccs: int
    num_dcs: int
    phase1_seconds: float
    phase2_seconds: float
    num_new_parent_tuples: int
    num_conflict_edges: int
    num_partitions: int
    errors: Optional[ErrorReport] = None
    #: Capacity overflow a soft strategy accepted on this edge (0 when
    #: the strategy enforces caps hard, or has none).
    total_overflow: int = 0
    #: The per-edge solver overrides that shadowed the global options.
    solver_overrides: Dict[str, object] = field(default_factory=dict)
    #: End-to-end wall clock of the edge's solve, measured wherever it
    #: ran (in the worker process for parallel traversals) — vs
    #: :attr:`total_seconds`, the pure Phase-I + Phase-II solve time.
    wall_seconds: float = 0.0
    #: ``True`` when the service layer spliced this edge from its
    #: edge-result cache instead of solving it; timings then describe
    #: the original (cached) solve.
    cache_hit: bool = False

    @property
    def total_seconds(self) -> float:
        return self.phase1_seconds + self.phase2_seconds

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "edge": f"{self.child}.{self.column} -> {self.parent}",
            "strategy": self.strategy,
            "num_ccs": self.num_ccs,
            "num_dcs": self.num_dcs,
            "phase1_s": round(self.phase1_seconds, 4),
            "phase2_s": round(self.phase2_seconds, 4),
            "solve_s": round(self.total_seconds, 4),
            "wall_s": round(self.wall_seconds, 4),
            "new_parent_tuples": self.num_new_parent_tuples,
            "conflict_edges": self.num_conflict_edges,
            "partitions": self.num_partitions,
        }
        if self.cache_hit:
            out["cache_hit"] = True
        if self.total_overflow:
            out["total_overflow"] = self.total_overflow
        if self.solver_overrides:
            out["solver_overrides"] = dict(self.solver_overrides)
        if self.errors is not None:
            out["median_cc_error"] = round(self.errors.median_cc_error, 4)
            out["mean_cc_error"] = round(self.errors.mean_cc_error, 4)
            out["max_cc_error"] = round(self.errors.max_cc_error, 4)
            out["dc_error"] = round(self.errors.dc_error, 4)
        return out

    def as_payload(self) -> Dict[str, object]:
        """A lossless JSON-serialisable form (vs the rounded
        :meth:`as_dict` summary) — what the edge-result cache persists
        next to each entry so hits can replay the original report."""
        out: Dict[str, object] = {
            "child": self.child,
            "column": self.column,
            "parent": self.parent,
            "strategy": self.strategy,
            "num_ccs": self.num_ccs,
            "num_dcs": self.num_dcs,
            "phase1_seconds": self.phase1_seconds,
            "phase2_seconds": self.phase2_seconds,
            "num_new_parent_tuples": self.num_new_parent_tuples,
            "num_conflict_edges": self.num_conflict_edges,
            "num_partitions": self.num_partitions,
            "total_overflow": self.total_overflow,
            "solver_overrides": dict(self.solver_overrides),
            "wall_seconds": self.wall_seconds,
        }
        if self.errors is not None:
            out["errors"] = {
                "per_cc": [float(e) for e in self.errors.per_cc],
                "dc_error": float(self.errors.dc_error),
            }
        return out

    @classmethod
    def from_payload(
        cls, data: Dict[str, object], *, cache_hit: bool = False
    ) -> "EdgeReport":
        """Rebuild a report persisted by :meth:`as_payload`."""
        data = dict(data)
        errors = data.pop("errors", None)
        if errors is not None:
            errors = ErrorReport(
                per_cc=list(errors["per_cc"]),
                dc_error=errors["dc_error"],
            )
        return cls(errors=errors, cache_hit=cache_hit, **data)


@dataclass
class SynthesisResult:
    """The completed database plus per-edge reports.

    ``steps`` keeps the full per-edge :class:`CExtensionResult` objects
    for callers that need Phase-I/II internals; ``edges`` is the compact
    report the CLI and summaries read.
    """

    spec: SynthesisSpec
    database: Database
    edges: List[EdgeReport] = field(default_factory=list)
    steps: List[Tuple[ForeignKey, CExtensionResult]] = field(
        default_factory=list
    )

    def relation(self, name: str) -> Relation:
        return self.database.relation(name)

    @property
    def total_seconds(self) -> float:
        return sum(edge.total_seconds for edge in self.edges)

    @property
    def dc_error(self) -> float:
        """The worst per-edge DC error (0.0 when nothing was evaluated)."""
        errors = [e.errors.dc_error for e in self.edges if e.errors]
        return max(errors, default=0.0)

    @property
    def max_cc_error(self) -> float:
        errors = [e.errors.max_cc_error for e in self.edges if e.errors]
        return max(errors, default=0.0)

    def summary(self) -> Dict[str, object]:
        """A JSON-serialisable account of the whole run."""
        return {
            "name": self.spec.name,
            "fact_table": self.spec.fact(),
            "relations": {
                name: len(self.database.relation(name))
                for name in self.database.relation_names
            },
            "edges": [edge.as_dict() for edge in self.edges],
            "total_seconds": round(self.total_seconds, 4),
            "dc_error": round(self.dc_error, 4),
            "max_cc_error": round(self.max_cc_error, 4),
        }


@contextmanager
def spill_guard(spec: SynthesisSpec) -> Iterator[None]:
    """Remove spill directories a failed run created under its
    ``storage_dir``.

    With the mmap backend and a named ``storage_dir``, each relation
    spills into ``storage_dir/<name>``.  When the guarded block raises,
    every child directory that appeared during the block is deleted (and
    ``storage_dir`` itself, if the block created it and it emptied out)
    — pre-existing contents are never touched.  Without a named storage
    directory this is a no-op: temp-dir spills already clean themselves
    up with the store's lifetime.
    """
    options = spec.options
    root: Optional[Path] = None
    if options.storage == "mmap" and options.storage_dir is not None:
        root = Path(options.storage_dir)
    existed = root is not None and root.exists()
    before = {p.name for p in root.iterdir()} if existed else set()
    try:
        yield
    except BaseException:
        if root is not None and root.exists():
            for child in root.iterdir():
                if child.name not in before:
                    shutil.rmtree(child, ignore_errors=True)
            if not existed and not any(root.iterdir()):
                root.rmdir()
        raise


def edge_constraint_map(
    spec: SynthesisSpec,
) -> Dict[Tuple[str, str], EdgeConstraints]:
    """``(child, column) → EdgeConstraints`` for every declared edge."""
    return {
        (edge.child, edge.column): EdgeConstraints(
            ccs=edge.ccs,
            dcs=edge.dcs,
            capacity=edge.capacity,
            strategy=edge.strategy,
            options=edge.options,
            solver_overrides=edge.solver,
            serialize=edge.serialize,
        )
        for edge in spec.edges
    }


def edge_report(
    fk: ForeignKey,
    step: CExtensionResult,
    constraints: EdgeConstraints,
) -> EdgeReport:
    """The compact report for one solved edge."""
    strategy, _ = constraints.resolved_strategy()
    return EdgeReport(
        child=fk.child,
        column=fk.column,
        parent=fk.parent,
        strategy=strategy,
        num_ccs=len(constraints.ccs),
        num_dcs=len(constraints.dcs),
        phase1_seconds=step.report.phase1_seconds,
        phase2_seconds=step.report.phase2_seconds,
        num_new_parent_tuples=step.phase2.stats.num_new_r2_tuples,
        num_conflict_edges=step.phase2.stats.num_edges,
        num_partitions=step.phase2.stats.num_partitions,
        errors=step.report.errors,
        total_overflow=step.phase2.stats.total_overflow,
        solver_overrides=dict(constraints.solver_overrides),
        wall_seconds=step.report.wall_seconds,
    )


def synthesis_result(
    spec: SynthesisSpec,
    constraints: Mapping[Tuple[str, str], EdgeConstraints],
    flake: SnowflakeResult,
) -> SynthesisResult:
    """``spec``'s result from its traversal: one report per edge.

    Reports come in BFS order.  A solved edge reports its solve; an edge
    the traversal spliced from an :class:`~repro.core.snowflake.EdgeHooks`
    hit (a service edge-cache entry) replays the report stored with the
    hit, flagged ``cache_hit=True``.
    """
    reports: Dict[Tuple[str, str], EdgeReport] = {}
    for fk, step in flake.steps:
        key = (fk.child, fk.column)
        reports[key] = edge_report(
            fk, step, constraints.get(key, EdgeConstraints())
        )
    for fk, hit in flake.spliced:
        reports[(fk.child, fk.column)] = EdgeReport.from_payload(
            hit.report, cache_hit=True
        )
    return SynthesisResult(
        spec=spec,
        database=flake.database,
        edges=[
            reports[(fk.child, fk.column)]
            for fk in flake.database.bfs_edges(spec.fact())
        ],
        steps=flake.steps,
    )


def synthesize(spec: SynthesisSpec) -> SynthesisResult:
    """Execute a declarative workload end to end.

    Builds the database and solves every FK edge, BFS outward from the
    fact table, with its declared constraint sets and Phase-II strategy.
    Two-table workloads are simply one-edge snowflakes.
    """
    spec.validate()
    with spill_guard(spec):
        database = spec.to_database()
        constraints = edge_constraint_map(spec)
        flake = SnowflakeSynthesizer(spec.options).solve(
            database, spec.fact(), constraints
        )
    return synthesis_result(spec, constraints, flake)
