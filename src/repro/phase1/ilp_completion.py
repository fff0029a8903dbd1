"""Algorithm 1 — completing ``V_join`` through an integer program.

The CCs (and optionally the all-way marginals of R1) become a linear
system over variables ``x[bin, combo]`` counting how many view rows of an
R1 *bin* (Section 4.1's intervalized tuple types) receive each R2 *combo*.

Encoding details (documented in DESIGN.md):

* bin-total rows are **hard** equalities when marginals are enabled — the
  counts are exact by construction;
* CC rows are **soft** by default: each gets an L1 slack pair minimised in
  the objective, so the program is always feasible (the paper tolerates CC
  error; ``soft_ccs=False`` recovers the strict ``Ax = b`` behaviour);
* every variable is an integer bounded by its bin population.

After solving, the assignment is *greedy*: for each variable value ``v``,
up to ``v`` still-unassigned rows of the bin receive the combo (lines
15–17 of Algorithm 1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.intervalize import Binning, build_binning
from repro.constraints.marginals import relevant_bins
from repro.errors import InfeasibleError, SolverError
from repro.phase1.assignment import ViewAssignment
from repro.phase1.combos import ComboCatalog
from repro.relational.relation import Relation
from repro.solver import Model, solve_model

__all__ = ["IlpCompletionStats", "complete_with_ilp"]


@dataclass
class IlpCompletionStats:
    """Diagnostics for one Algorithm-1 run."""

    num_variables: int = 0
    num_bin_rows: int = 0
    num_cc_rows: int = 0
    solver_status: str = "skipped"
    solver_objective: Optional[float] = None
    assigned_rows: int = 0
    build_seconds: float = 0.0
    solve_seconds: float = 0.0
    fill_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.build_seconds + self.solve_seconds + self.fill_seconds


def complete_with_ilp(
    r1: Relation,
    r1_attrs: Sequence[str],
    catalog: ComboCatalog,
    ccs: Sequence[CardinalityConstraint],
    assignment: ViewAssignment,
    *,
    marginals: str = "all",
    soft_ccs: bool = True,
    binning: Optional[Binning] = None,
    time_limit: Optional[float] = None,
    mip_gap: Optional[float] = None,
) -> IlpCompletionStats:
    """Run Algorithm 1 over the rows still untouched in ``assignment``.

    ``marginals`` is one of:

    * ``"all"`` — one hard row per bin (Section 4.1 augmentation);
    * ``"relevant"`` — rows only for bins that can contribute to some CC
      (the hybrid's *modified marginals*, Section 4.3);
    * ``"none"`` — no bin rows (the plain baseline).
    """
    stats = IlpCompletionStats()
    if not ccs:
        return stats
    started = time.perf_counter()

    rows = assignment.untouched_indices()
    if len(rows) == 0:
        return stats
    if binning is None:
        binning = build_binning(r1, r1_attrs, ccs)
    members = binning.bin_members(r1, rows)
    bin_keys = sorted(members.keys(), key=repr)
    combos = catalog.combos
    if not combos:
        return stats

    r1_attr_set = set(r1_attrs)
    r2_attr_set = set(catalog.attrs)

    if marginals == "relevant":
        scope = relevant_bins(binning, bin_keys, ccs, r1_attr_set)
    elif marginals == "all":
        scope = set(bin_keys)
    elif marginals == "none":
        scope = set()
    else:
        raise ValueError(f"unknown marginals mode {marginals!r}")

    # ------------------------------------------------------------------
    # Build the model.
    # ------------------------------------------------------------------
    model = Model()
    var_index: Dict[Tuple[int, int], int] = {}
    for b, key in enumerate(bin_keys):
        population = len(members[key])
        for c in range(len(combos)):
            var = model.add_variable(
                name=f"x[{b},{c}]",
                lower=0.0,
                upper=float(population),
                integer=True,
            )
            var_index[(b, c)] = var.index

    objective: Dict[int, float] = {}

    # Bin-total rows (hard marginals).
    for b, key in enumerate(bin_keys):
        if key not in scope:
            continue
        coeffs = {var_index[(b, c)]: 1.0 for c in range(len(combos))}
        model.add_constraint(
            coeffs, "==", float(len(members[key])), name=f"bin[{b}]"
        )
        stats.num_bin_rows += 1
    # Even without marginal rows we must never assign more rows than a bin
    # holds, otherwise the greedy fill silently truncates.
    if marginals != "all":
        for b, key in enumerate(bin_keys):
            if key in scope:
                continue
            coeffs = {var_index[(b, c)]: 1.0 for c in range(len(combos))}
            model.add_constraint(
                coeffs, "<=", float(len(members[key])), name=f"bincap[{b}]"
            )

    # Pre-compute which (bin, combo) cells satisfy each CC.  A cell counts
    # toward a disjunctive CC when *some* disjunct matches it on both
    # sides (by intervalization, bin membership in each disjunct's R1
    # condition is exact).
    for cc_pos, cc in enumerate(ccs):
        coeffs: Dict[int, float] = {}
        for r1_part, r2_part in cc.split_disjuncts(r1_attr_set, r2_attr_set):
            matching_bins = [
                b
                for b, key in enumerate(bin_keys)
                if binning.bin_matches(key, r1_part)
            ]
            matching_combos = [
                c
                for c, combo in enumerate(combos)
                if r2_part.matches_row(catalog.as_dict(combo))
            ]
            for b in matching_bins:
                for c in matching_combos:
                    coeffs[var_index[(b, c)]] = 1.0
        if soft_ccs:
            over = model.add_variable(name=f"over[{cc_pos}]", lower=0.0)
            under = model.add_variable(name=f"under[{cc_pos}]", lower=0.0)
            coeffs[over.index] = -1.0
            coeffs[under.index] = 1.0
            objective[over.index] = 1.0
            objective[under.index] = 1.0
        model.add_constraint(
            coeffs, "==", float(cc.target), name=f"cc[{cc_pos}]"
        )
        stats.num_cc_rows += 1

    model.set_objective(objective)
    stats.num_variables = len(var_index)
    stats.build_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    # Solve.
    # ------------------------------------------------------------------
    started = time.perf_counter()
    result = solve_model(model, time_limit=time_limit, mip_gap=mip_gap)
    stats.solve_seconds = time.perf_counter() - started
    stats.solver_status = result.status.value
    stats.solver_objective = result.objective
    if not result.ok or result.x is None:
        if time_limit is not None and result.status.value == "iteration_limit":
            # The budget expired before any integral incumbent was found —
            # not an infeasibility, a too-tight limit.
            raise SolverError(
                f"the ILP time limit ({time_limit}s) expired before any "
                "integral solution was found; raise time_limit or loosen "
                "mip_gap"
            )
        if soft_ccs:
            # The soft program is feasible by construction (all-zero x with
            # slack is a solution), so a failure here is a solver problem.
            raise InfeasibleError(
                f"soft ILP unexpectedly failed: {result.status.value}"
            )
        raise InfeasibleError(
            "the CC system has no integral solution (strict mode)"
        )

    # ------------------------------------------------------------------
    # Greedy fill (lines 15-17).
    # ------------------------------------------------------------------
    started = time.perf_counter()
    cursor: Dict[tuple, int] = {key: 0 for key in bin_keys}
    for b, key in enumerate(bin_keys):
        member_rows = members[key]
        for c, combo in enumerate(combos):
            value = int(round(result.x[var_index[(b, c)]]))
            if value <= 0:
                continue
            take = min(value, len(member_rows) - cursor[key])
            if take <= 0:
                continue
            values = catalog.as_dict(combo)
            start = cursor[key]
            assignment.assign_rows(member_rows[start:start + take], values)
            cursor[key] += take
            stats.assigned_rows += take
    stats.fill_seconds = time.perf_counter() - started
    return stats
