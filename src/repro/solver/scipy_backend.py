"""The one LP/MILP solve: HiGHS through :func:`scipy.optimize.milp`.

The authors used PuLP's CBC; the closest widely available solver in this
environment is HiGHS via :func:`scipy.optimize.milp`.  This module adapts a
:class:`~repro.solver.model.Model` to that interface.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.solver.model import Model
from repro.solver.result import SolveResult, SolveStatus

__all__ = ["solve_model"]


def solve_model(
    model: Model,
    *,
    time_limit: Optional[float] = None,
    mip_gap: Optional[float] = None,
) -> SolveResult:
    """Solve a model with :func:`scipy.optimize.milp` (HiGHS).

    ``time_limit`` (seconds) and ``mip_gap`` (relative MIP gap) map onto
    HiGHS's ``time_limit`` / ``mip_rel_gap`` options; ``None`` means
    unlimited / exact.  A limited solve that still produced an integral
    incumbent returns ``FEASIBLE``.
    """
    from scipy import optimize, sparse

    a, b, senses, c, lower, upper = model.dense()
    n = model.num_variables

    constraints: List[optimize.LinearConstraint] = []
    if model.num_constraints:
        lo = np.full(len(b), -np.inf)
        hi = np.full(len(b), np.inf)
        for i, sense in enumerate(senses):
            if sense == "==":
                lo[i] = hi[i] = b[i]
            elif sense == "<=":
                hi[i] = b[i]
            else:
                lo[i] = b[i]
        constraints.append(
            optimize.LinearConstraint(sparse.csr_matrix(a), lo, hi)
        )

    integrality = np.zeros(n)
    for j in model.integer_indices:
        integrality[j] = 1

    options: Dict[str, object] = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if mip_gap is not None:
        options["mip_rel_gap"] = float(mip_gap)

    def milp(settings: Dict[str, object]) -> optimize.OptimizeResult:
        return optimize.milp(
            c=c,
            constraints=constraints,
            integrality=integrality,
            bounds=optimize.Bounds(lower, upper),
            options=settings,
        )

    result = milp(options)
    if result.status == 4:
        # HiGHS's presolve can end a tiny infeasible or unbounded MILP in
        # "Solve error"; without presolve the same model is classified.
        result = milp({**options, "presolve": False})
    if result.x is not None and result.status in (0, 1):
        x = np.asarray(result.x, dtype=np.float64)
        for j in model.integer_indices:
            x[j] = round(x[j])
        status = (
            SolveStatus.OPTIMAL if result.status == 0 else SolveStatus.FEASIBLE
        )
        return SolveResult(status, x=x, objective=float(c @ x))
    if result.status == 2:
        return SolveResult(SolveStatus.INFEASIBLE)
    if result.status == 3:
        return SolveResult(SolveStatus.UNBOUNDED)
    return SolveResult(SolveStatus.ITERATION_LIMIT)
