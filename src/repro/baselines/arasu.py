"""The Section-6 baselines, modeled on Arasu et al. [5].

Both baselines share Phase I's ILP machinery but differ from the hybrid:

* **baseline** — one big ILP over *all* CCs with no marginal rows
  (Algorithm 1 without the line-8 loop); view rows the ILP leaves
  unassigned get uniformly random combos.
* **baseline with marginals** — the same ILP augmented with all all-way
  marginal rows, which provably accounts for every tuple (no random
  fallback fires in practice).

Phase II for both: a *random* candidate key per row — DCs are ignored,
which is where their DC error comes from.  Neither baseline ever adds
tuples to R2.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.dc import DenialConstraint
from repro.core.metrics import ErrorReport, evaluate
from repro.errors import ColoringError
from repro.phase1.assignment import ViewAssignment
from repro.phase1.combos import ComboCatalog
from repro.phase1.ilp_completion import IlpCompletionStats, complete_with_ilp
from repro.relational.relation import Relation
from repro.relational.schema import ColumnSpec

__all__ = ["BaselineResult", "baseline_solve"]


@dataclass
class BaselineResult:
    """Outputs and diagnostics of one baseline run."""

    r1_hat: Relation
    r2_hat: Relation
    fk_column: str
    with_marginals: bool
    phase1_seconds: float = 0.0
    phase2_seconds: float = 0.0
    randomly_filled_rows: int = 0
    ilp: Optional[IlpCompletionStats] = None
    errors: Optional[ErrorReport] = None

    @property
    def total_seconds(self) -> float:
        return self.phase1_seconds + self.phase2_seconds


def baseline_solve(
    r1: Relation,
    r2: Relation,
    *,
    fk_column: str,
    ccs: Sequence[CardinalityConstraint] = (),
    dcs: Sequence[DenialConstraint] = (),
    with_marginals: bool = False,
    seed: int = 0,
    compute_errors: bool = True,
) -> BaselineResult:
    """Run a baseline; ``dcs`` are used only for error reporting."""
    if fk_column in r1.schema:
        r1 = r1.drop_column(fk_column)
    rng = random.Random(seed)
    catalog = ComboCatalog.from_relation(r2)
    assignment = ViewAssignment(n=len(r1), r2_attrs=catalog.attrs)
    r1_attrs = list(r1.schema.nonkey_names)

    # ------------------------------------------------------------------
    # Phase I: one monolithic ILP (± marginal rows) + random fallback.
    # ------------------------------------------------------------------
    started = time.perf_counter()
    ilp_stats = complete_with_ilp(
        r1,
        r1_attrs,
        catalog,
        list(ccs),
        assignment,
        marginals="all" if with_marginals else "none",
        soft_ccs=True,
    )
    randomly_filled = 0
    if catalog.combos:
        for row in range(assignment.n):
            if not assignment.is_complete(row):
                partial = assignment.values(row) or {}
                pool = (
                    catalog.consistent(partial) if partial else catalog.combos
                )
                if not pool:
                    pool = catalog.combos
                combo = pool[rng.randrange(len(pool))]
                values = catalog.as_dict(combo)
                # Overwrite-tolerant fill: keep pinned attrs, fill the rest.
                assignment.assign(
                    row,
                    {
                        a: partial.get(a, values[a])
                        for a in catalog.attrs
                    },
                )
                randomly_filled += 1
    phase1_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    # Phase II: random candidate key per row (no DC awareness).
    # ------------------------------------------------------------------
    started = time.perf_counter()
    fk_values: List[object] = []
    for row in range(assignment.n):
        combo = assignment.combo(row)
        keys = catalog.keys_by_combo.get(combo)
        if not keys:
            raise ColoringError(
                f"baseline assigned combo {combo!r} with no R2 key"
            )
        fk_values.append(keys[rng.randrange(len(keys))])
    key_dtype = r2.schema.dtype(r2.schema.key)
    r1_hat = r1.with_column(ColumnSpec(fk_column, key_dtype), fk_values)
    phase2_seconds = time.perf_counter() - started

    result = BaselineResult(
        r1_hat=r1_hat,
        r2_hat=r2,
        fk_column=fk_column,
        with_marginals=with_marginals,
        phase1_seconds=phase1_seconds,
        phase2_seconds=phase2_seconds,
        randomly_filled_rows=randomly_filled,
        ilp=ilp_stats,
    )
    if compute_errors:
        result.errors = evaluate(r1_hat, r2, fk_column, ccs, dcs)
    return result
