"""Reference Phase II: the frozenset hypergraph and its coloring loops.

This is the pre-CSR implementation, kept as an independent oracle for
the array-backed :class:`repro.phase2.hypergraph.ConflictHypergraph`:
every edge is a ``frozenset`` with per-vertex incidence lists, edges
come from a row-level scan with :meth:`DenialConstraint.violates`, and
each coloring loop rebuilds its forbidden set from the incident edges.
``tests/phase2/test_csr_equivalence.py`` holds the production graph
and colorings to exactly this behaviour.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from repro.constraints.dc import DenialConstraint
from repro.errors import ReproError
from repro.relational.relation import Relation


@dataclass
class ReferenceHypergraph:
    """A hypergraph over integer vertex ids with incidence lists."""

    vertices: List[int] = field(default_factory=list)
    edges: List[FrozenSet[int]] = field(default_factory=list)
    _incident: Dict[int, List[int]] = field(default_factory=dict)
    _edge_set: Set[FrozenSet[int]] = field(default_factory=set)

    @classmethod
    def over(cls, vertices: Iterable[int]) -> "ReferenceHypergraph":
        graph = cls()
        for v in vertices:
            graph.add_vertex(v)
        return graph

    def add_vertex(self, v: int) -> None:
        if v not in self._incident:
            self.vertices.append(v)
            self._incident[v] = []

    def add_edge(self, members: Iterable[int]) -> bool:
        """Add a hyperedge; returns ``False`` for duplicates/degenerate."""
        edge = frozenset(members)
        if len(edge) < 2 or edge in self._edge_set:
            return False
        for v in sorted(edge):
            self.add_vertex(v)
        index = len(self.edges)
        self.edges.append(edge)
        self._edge_set.add(edge)
        for v in sorted(edge):
            self._incident[v].append(index)
        return True

    def incident_edges(self, v: int) -> List[FrozenSet[int]]:
        return [self.edges[i] for i in self._incident.get(v, [])]

    def degree(self, v: int) -> int:
        return len(self._incident.get(v, []))

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def reference_graph(
    relation: Relation,
    dcs: Sequence[DenialConstraint],
    rows: Iterable[int],
) -> ReferenceHypergraph:
    """Definition 5.1 by brute force: every ``arity``-subset of ``rows``
    whose tuples violate some DC in some ordering becomes an edge."""
    graph = ReferenceHypergraph.over(sorted(set(rows)))
    records = {v: relation.row(v) for v in graph.vertices}
    for dc in dcs:
        for combo in itertools.combinations(graph.vertices, dc.arity):
            if dc.violates([records[v] for v in combo]):
                graph.add_edge(combo)
    return graph


def _forbidden(graph: ReferenceHypergraph, v: int, coloring) -> Set[object]:
    forbidden = set()
    for edge in graph.incident_edges(v):
        others = [u for u in edge if u != v]
        colors = {coloring.get(u) for u in others}
        if len(colors) == 1:
            (only,) = colors
            if only is not None:
                forbidden.add(only)
    return forbidden


def _order(graph: ReferenceHypergraph, coloring) -> List[int]:
    return sorted(
        (v for v in graph.vertices if v not in coloring),
        key=lambda v: (-graph.degree(v), v),
    )


def reference_coloring_lf(
    graph: ReferenceHypergraph,
    coloring: Dict[int, object],
    candidates: Sequence[object],
    candidate_lists: Optional[Dict[int, Sequence[object]]] = None,
):
    skipped: List[int] = []
    for v in _order(graph, coloring):
        forbidden = _forbidden(graph, v, coloring)
        pool = candidates
        if candidate_lists is not None and v in candidate_lists:
            pool = candidate_lists[v]
        chosen = next((c for c in pool if c not in forbidden), None)
        if chosen is None:
            skipped.append(v)
        else:
            coloring[v] = chosen
    return coloring, skipped


def reference_capacity_coloring(
    graph: ReferenceHypergraph,
    candidates: Sequence[object],
    max_per_key: int,
    coloring: Optional[Dict[int, object]] = None,
    usage: Optional[Dict[object, int]] = None,
):
    if max_per_key < 1:
        raise ReproError("max_per_key must be at least 1")
    coloring = coloring if coloring is not None else {}
    usage = usage if usage is not None else {}
    for color in coloring.values():
        usage.setdefault(color, 0)
    skipped: List[int] = []
    for v in _order(graph, coloring):
        forbidden = _forbidden(graph, v, coloring)
        chosen = next(
            (
                c
                for c in candidates
                if c not in forbidden and usage.get(c, 0) < max_per_key
            ),
            None,
        )
        if chosen is None:
            skipped.append(v)
        else:
            coloring[v] = chosen
            usage[chosen] = usage.get(chosen, 0) + 1
    return coloring, skipped


def reference_soft_capacity_coloring(
    graph: ReferenceHypergraph,
    candidates: Sequence[object],
    max_per_key: int,
    penalty: float,
    new_tuple_cost: float,
    coloring: Optional[Dict[int, object]] = None,
    usage: Optional[Dict[object, int]] = None,
):
    if max_per_key < 1:
        raise ReproError("max_per_key must be at least 1")
    coloring = coloring if coloring is not None else {}
    usage = usage if usage is not None else {}
    for color in coloring.values():
        usage.setdefault(color, 0)
    skipped: List[int] = []
    for v in _order(graph, coloring):
        forbidden = _forbidden(graph, v, coloring)
        best = None
        best_cost = math.inf
        for c in candidates:
            if c in forbidden:
                continue
            over = usage.get(c, 0) + 1 - max_per_key
            cost = 0.0 if over <= 0 else penalty * over
            if cost < best_cost:
                best_cost = cost
                best = c
                if cost == 0.0:
                    break
        if best is None or math.isinf(best_cost) or best_cost > new_tuple_cost:
            skipped.append(v)
        else:
            coloring[v] = best
            usage[best] = usage.get(best, 0) + 1
    return coloring, skipped
