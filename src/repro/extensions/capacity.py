"""Capacity-constrained FK assignment (the paper's future-work item 1).

The paper's linear CCs count join-view rows; its conclusions name
*non-linear* CCs — constraints "on the number of rows that share the same
foreign key" — as future work.  The most common such constraint is a
**capacity**: no key may be referenced by more than ``max_per_key`` rows
(census households have bounded size; a department hosts at most so many
majors).

This module extends Phase II's list coloring with per-color capacities: a
color becomes forbidden once its usage reaches the cap (a hard
:class:`~repro.phase2.coloring.KeyCap`), in addition to Algorithm 3's
DC-based forbidding.  Skipped vertices receive fresh keys exactly as in
Algorithm 4, so the capacity invariant always holds in the output (at
the price of possibly more fresh R2 tuples).

The capacity pass is registered as the ``"capacity"`` Phase-II strategy
(see :mod:`repro.core.stages`), so the unified solver and the spec-driven
:func:`repro.synthesize` front door reach it by name;
:func:`solve_with_capacity` survives as a convenience shim over that
path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.dc import DenialConstraint
from repro.core.config import SolverConfig
from repro.core.metrics import ErrorReport
from repro.core.stages import register_phase2_strategy
from repro.errors import ReproError
from repro.phase1.assignment import ViewAssignment
from repro.phase1.combos import ComboCatalog
from repro.phase2.coloring import KeyCap
# perfbench's trace targets still look these two names up in this module.
from repro.phase2.edges import build_conflict_graph  # noqa: F401
from repro.phase2.fk_assignment import (
    Phase2Result,
    partition_by_combo,  # noqa: F401
    run_phase2,
)
from repro.relational.relation import Relation

__all__ = ["CapacityResult", "solve_with_capacity", "fk_usage_histogram"]


@dataclass
class CapacityResult:
    """Output of a capacity-constrained solve."""

    r1_hat: Relation
    r2_hat: Relation
    fk_column: str
    max_per_key: int
    num_new_r2_tuples: int
    errors: Optional[ErrorReport] = None

    def usage(self) -> Dict[object, int]:
        return fk_usage_histogram(self.r1_hat, self.fk_column)


def fk_usage_histogram(r1_hat: Relation, fk_column: str) -> Dict[object, int]:
    """How many rows reference each key (the non-linear CC's subject)."""
    out: Dict[object, int] = {}
    for value in r1_hat.column(fk_column):
        out[value] = out.get(value, 0) + 1
    return out


@register_phase2_strategy("capacity")
def capacity_phase2(
    r1: Relation,
    r2: Relation,
    dcs: Sequence[DenialConstraint],
    assignment: ViewAssignment,
    catalog: ComboCatalog,
    fk_column: str,
    *,
    ccs: Sequence[CardinalityConstraint] = (),
    config: Optional[SolverConfig] = None,
    options: Optional[Mapping[str, object]] = None,
) -> Phase2Result:
    """The ``"capacity"`` Phase-II strategy: Algorithm 4 with a usage cap.

    Runs :func:`~repro.phase2.fk_assignment.run_phase2` with the hard
    :class:`~repro.phase2.coloring.KeyCap` ``options["max_per_key"]`` on
    every partition.  All DCs hold exactly and every key serves at most
    that many rows; both invariants are enforced even for invalid tuples
    (which here always receive fresh keys — the safest
    capacity-respecting choice).
    """
    options = dict(options or {})
    cap = KeyCap(options.pop("max_per_key", None))
    if options:
        raise ReproError(
            f"unknown capacity strategy options {sorted(options)}"
        )
    return run_phase2(
        r1,
        r2,
        dcs,
        assignment,
        catalog,
        fk_column,
        ccs=ccs,
        cap_of=lambda combo: cap,
    )


def solve_with_capacity(
    r1: Relation,
    r2: Relation,
    *,
    fk_column: str,
    max_per_key: int,
    ccs: Sequence[CardinalityConstraint] = (),
    dcs: Sequence[DenialConstraint] = (),
    config: Optional[SolverConfig] = None,
) -> CapacityResult:
    """C-Extension with a hard per-key capacity.

    A convenience shim over the unified solver: Phase I is the unchanged
    hybrid; Phase II dispatches to the registered ``"capacity"`` strategy.
    Identical to ``CExtensionSolver(config).solve(..., strategy="capacity",
    strategy_options={"max_per_key": max_per_key})``.
    """
    from repro.core.synthesizer import CExtensionSolver

    result = CExtensionSolver(config).solve(
        r1,
        r2,
        fk_column=fk_column,
        ccs=ccs,
        dcs=dcs,
        strategy="capacity",
        strategy_options={"max_per_key": max_per_key},
    )
    return CapacityResult(
        r1_hat=result.r1_hat,
        r2_hat=result.r2_hat,
        fk_column=fk_column,
        max_per_key=max_per_key,
        num_new_r2_tuples=result.phase2.stats.num_new_r2_tuples,
        errors=result.report.errors,
    )
