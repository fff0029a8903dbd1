"""Soft-capacity FK assignment: capacities as penalised soft constraints.

The hard ``"capacity"`` strategy (:mod:`repro.extensions.capacity`) forbids
a key outright once its usage reaches ``max_per_key`` and mints a fresh R2
tuple for every saturated vertex.  Real workloads often prefer the
opposite trade: keep the parent table small and *tolerate* a little
overflow, as long as the total overflow is minimised.

The ``"soft_capacity"`` strategy implements that trade as a penalised
objective inside Algorithm 3's greedy choice.  For a vertex ``v`` each
DC-permitted candidate key ``c`` costs::

    cost(c) = 0                                  if usage(c) < max_per_key
    cost(c) = penalty * (usage(c) + 1 - max_per_key)   otherwise

and ``v`` takes the cheapest candidate (candidate order breaks ties, so a
zero-cost choice is exactly the hard strategy's choice).  A vertex is
skipped — falling through to Algorithm 4's fresh keys — only when every
candidate is DC-forbidden, when the best cost is infinite
(``penalty = inf`` recovers the hard strategy, output-identically), or
when it exceeds ``new_tuple_cost`` (the price of minting a fresh parent
tuple; ``inf`` by default, i.e. never mint just to dodge an overflow).

That choice rule is :class:`~repro.phase2.coloring.KeyCap`'s, run by
:func:`~repro.phase2.fk_assignment.run_phase2` like every strategy's.
The per-key overflow that was accepted is reported in
:attr:`Phase2Result.overflow` and summed in
:attr:`Phase2Stats.total_overflow`.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Mapping, Optional, Sequence

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.dc import DenialConstraint
from repro.core.config import SolverConfig
from repro.core.stages import register_phase2_strategy
from repro.errors import ReproError
from repro.phase1.assignment import ViewAssignment
from repro.phase1.combos import ComboCatalog
from repro.phase2.coloring import KeyCap
from repro.phase2.fk_assignment import Phase2Result, run_phase2
from repro.relational.relation import Relation

__all__ = ["soft_capacity_phase2"]


@register_phase2_strategy("soft_capacity")
def soft_capacity_phase2(
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
    """The ``"soft_capacity"`` Phase-II strategy.

    Options:

    * ``max_per_key`` (required int) — the per-key capacity;
    * ``penalty`` (float, default ``1.0``) — objective cost per unit of
      overflow; ``inf`` makes the cap hard (output-identical to the
      ``"capacity"`` strategy);
    * ``new_tuple_cost`` (float, default ``inf``) — cost of minting a
      fresh parent tuple instead of overflowing; a vertex whose cheapest
      overflow would exceed it is skipped to Algorithm 4's fresh keys.

    All DCs hold exactly; capacities may overflow, and the realised
    per-key overflow is reported in the result.
    """
    options = dict(options or {})
    max_per_key = options.pop("max_per_key", None)
    penalty = options.pop("penalty", 1.0)
    new_tuple_cost = options.pop("new_tuple_cost", math.inf)
    if options:
        raise ReproError(
            f"unknown soft_capacity strategy options {sorted(options)}"
        )
    cap = KeyCap(max_per_key, float(penalty), float(new_tuple_cost))
    if cap.penalty <= 0:
        raise ReproError("soft_capacity 'penalty' must be positive")
    if cap.new_tuple_cost < 0:
        raise ReproError("soft_capacity 'new_tuple_cost' must be >= 0")

    result = run_phase2(
        r1,
        r2,
        dcs,
        assignment,
        catalog,
        fk_column,
        ccs=ccs,
        cap_of=lambda combo: cap,
    )
    # Count keys in coloring order, as the Python scalars the coloring
    # holds (an R1̂ column histogram would give numpy scalars).
    usage = Counter(result.coloring.values())
    result.overflow = {
        key: count - cap.max_per_key
        for key, count in usage.items()
        if count > cap.max_per_key
    }
    result.stats.total_overflow = sum(result.overflow.values())
    return result
