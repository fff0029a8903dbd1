"""Algorithm 3 — largest-first list coloring of the conflict hypergraph.

Uncolored vertices are visited in non-increasing degree order.  A color is
*forbidden* for ``v`` when some incident edge has every other member
already colored with that same color (for binary edges: the neighbour's
color).  The vertex takes the first permitted candidate; if every
candidate is forbidden the vertex is *skipped* and returned to the caller
(Algorithm 4 then mints fresh colors, i.e. fresh R2 keys).

Colors are ints — positions in Phase II's per-edge key table — and a
coloring is one color per vertex position, ``-1`` for uncolored.

A :class:`KeyCap` adds the capacity strategies' per-key usage cap to the
same loop: only the candidate choice changes, never the visit order or
the DC forbidding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.errors import ReproError
from repro.phase2.hypergraph import ConflictHypergraph

__all__ = ["KeyCap", "coloring_lf"]


@dataclass(frozen=True)
class KeyCap:
    """A per-key usage cap: at most ``max_per_key`` rows per color.

    A DC-permitted candidate ``c`` costs nothing while
    ``usage(c) < max_per_key`` and ``penalty * (usage(c) + 1 -
    max_per_key)`` beyond it.  The vertex takes the cheapest candidate
    (candidate order breaks ties, so a zero-cost choice is the first
    under-cap candidate) and is skipped when that cost is infinite or
    exceeds ``new_tuple_cost``, the price of minting a fresh key.  The
    default ``penalty = inf`` makes the cap hard.
    """

    max_per_key: int
    penalty: float = math.inf
    new_tuple_cost: float = math.inf

    def __post_init__(self) -> None:
        cap = self.max_per_key
        if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
            raise ReproError(
                f"'max_per_key' must be an integer >= 1, got {cap!r}"
            )

    def choose(
        self,
        pool: Sequence[int],
        forbidden: Set[int],
        usage: Dict[int, int],
    ) -> Optional[int]:
        """The cheapest permitted candidate, or ``None`` to skip."""
        best = None
        best_cost = math.inf
        for c in pool:
            if c in forbidden:
                continue
            over = usage.get(c, 0) + 1 - self.max_per_key
            cost = 0.0 if over <= 0 else self.penalty * over
            if cost < best_cost:
                best_cost = cost
                best = c
                if cost == 0.0:
                    break
        if best_cost > self.new_tuple_cost or math.isinf(best_cost):
            return None
        return best


def coloring_lf(
    graph: ConflictHypergraph,
    color: np.ndarray,
    candidates: Sequence[int],
    cap: Optional[KeyCap] = None,
    usage: Optional[Dict[int, int]] = None,
) -> List[int]:
    """Run one largest-first pass; returns the skipped positions.

    ``color`` holds a color per vertex position (``-1`` = uncolored) and
    may already hold colors (the fresh-key retry of Algorithm 4 builds
    on the first pass); the pass colors it in place.  With a ``cap``,
    ``usage`` counts the rows each color already serves (e.g. from an
    earlier pass) and is updated in place.
    """
    if cap is not None and usage is None:
        usage = {}
    colors = color.tolist()
    skipped: List[int] = []
    for v in graph.order(color):
        forbidden = graph.forbidden(v, colors)
        if cap is None:
            chosen = next((c for c in candidates if c not in forbidden), None)
        else:
            chosen = cap.choose(candidates, forbidden, usage)
        if chosen is None:
            skipped.append(v)
        else:
            colors[v] = chosen
            if cap is not None:
                usage[chosen] = usage.get(chosen, 0) + 1
    color[:] = colors
    return skipped
