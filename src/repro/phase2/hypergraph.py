"""Conflict hypergraphs for foreign-key DCs (Definition 5.1).

Vertices are R1 row indices; a hyperedge joins every set of tuples that
would violate some DC if assigned the same FK value.  A *proper coloring*
(no edge monochromatic) therefore yields a DC-satisfying FK assignment
(Proposition 5.2 — tested in ``tests/phase2``).

Binary edges (all of them for the usual two-tuple DCs) are stored as
CSR adjacency over vertex positions; only DCs of arity ≥ 3 keep Python
hyperedges.  :meth:`ConflictHypergraph.order` and
:meth:`ConflictHypergraph.forbidden` are the two halves of Algorithm 3
that every largest-first coloring shares.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

__all__ = ["ConflictHypergraph"]


class ConflictHypergraph:
    """A hypergraph over R1 row ids: CSR pairs plus k-ary hyperedges.

    ``vertices`` are ascending unique row ids; ``lo``/``hi`` list each
    binary edge once as vertex positions with ``lo < hi``; ``hyperedges``
    are unique ascending row tuples of length ≥ 3.
    """

    def __init__(
        self,
        vertices: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        hyperedges: Sequence[Tuple[int, ...]] = (),
    ) -> None:
        n = len(vertices)
        # Both directions of every pair, sorted by (source, target).
        both = np.sort(np.concatenate([lo * n + hi, hi * n + lo]))
        src, self.indices = np.divmod(both, max(n, 1))
        counts = np.bincount(src, minlength=n)
        self.vertices = vertices
        self.indptr = np.concatenate([[0], np.cumsum(counts)])
        self.hyperedges = list(hyperedges)
        self._incident: Dict[int, List[Tuple[int, ...]]] = {}
        for edge in self.hyperedges:
            for v in edge:
                self._incident.setdefault(v, []).append(edge)
        members = np.fromiter(
            (v for edge in self.hyperedges for v in edge), dtype=np.int64
        )
        self.degrees = counts + np.bincount(
            np.searchsorted(vertices, members), minlength=n
        )
        # Plain-Python views for the per-vertex coloring loop.
        self._rows: List[int] = vertices.tolist()
        self._position = dict(zip(self._rows, range(n)))
        self._indptr: List[int] = self.indptr.tolist()
        self._neighbours: List[int] = vertices[self.indices].tolist()

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2 + len(self.hyperedges)

    @property
    def edges(self) -> List[Tuple[int, ...]]:
        """Every edge as an ascending row tuple: pairs, then hyperedges."""
        src = np.repeat(self.vertices, np.diff(self.indptr))
        dst = self.vertices[self.indices]
        keep = src < dst
        pairs = zip(src[keep].tolist(), dst[keep].tolist())
        return list(pairs) + self.hyperedges

    def degree(self, v: int) -> int:
        position = self._position.get(v)
        return 0 if position is None else int(self.degrees[position])

    def order(self, coloring: Dict[int, object]) -> List[int]:
        """Algorithm 3's visit order: the uncolored vertices by
        non-increasing degree, ties by ascending row id."""
        rows, degrees = self.vertices, self.degrees
        if coloring:
            keep = np.fromiter(
                (v not in coloring for v in self._rows),
                dtype=bool,
                count=len(self._rows),
            )
            rows, degrees = rows[keep], degrees[keep]
        return rows[np.lexsort((rows, -degrees))].tolist()

    def forbidden(self, v: int, coloring: Dict[int, object]) -> Set[object]:
        """The colors ``v`` may not take: any neighbour's color, and a
        hyperedge's color when all its other members share it."""
        i = self._position[v]
        lo, hi = self._indptr[i], self._indptr[i + 1]
        out = set(map(coloring.get, self._neighbours[lo:hi]))
        for edge in self._incident.get(v, ()):
            colors = {coloring.get(u) for u in edge if u != v}
            if len(colors) == 1:
                out |= colors
        out.discard(None)
        return out

    def is_proper(self, coloring: Dict[int, object]) -> bool:
        """No edge has all members the same color (uncolored ≠ colored)."""
        for edge in self.edges:
            colors = {coloring.get(v) for v in edge}
            if len(colors) == 1 and None not in colors:
                return False
        return True
