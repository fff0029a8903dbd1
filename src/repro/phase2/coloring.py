"""Algorithm 3 — largest-first list coloring of the conflict hypergraph.

Uncolored vertices are visited in non-increasing degree order.  A color is
*forbidden* for ``v`` when some incident edge has every other member
already colored with that same color (for binary edges: the neighbour's
color).  The vertex takes the smallest permitted candidate; if every
candidate is forbidden the vertex is *skipped* and returned to the caller
(Algorithm 4 then mints fresh colors, i.e. fresh R2 keys).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.phase2.hypergraph import ConflictHypergraph

__all__ = ["coloring_lf"]


def coloring_lf(
    graph: ConflictHypergraph,
    coloring: Dict[int, object],
    candidates: Sequence[object],
    candidate_lists: Optional[Dict[int, Sequence[object]]] = None,
) -> Tuple[Dict[int, object], List[int]]:
    """Run one largest-first pass; returns ``(coloring, skipped)``.

    ``coloring`` may already hold colors (the second pass of Algorithm 4
    builds on the first); it is updated in place and also returned.
    ``candidate_lists`` optionally overrides the shared candidate list per
    vertex (used by ``solveInvalidTuples``, where lists differ per tuple).
    """
    skipped: List[int] = []
    for v in graph.order(coloring):
        forbidden = graph.forbidden(v, coloring)
        pool = candidates
        if candidate_lists is not None and v in candidate_lists:
            pool = candidate_lists[v]
        chosen = next((c for c in pool if c not in forbidden), None)
        if chosen is None:
            skipped.append(v)
        else:
            coloring[v] = chosen
    return coloring, skipped
