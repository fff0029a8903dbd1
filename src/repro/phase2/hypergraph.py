"""Conflict hypergraphs for foreign-key DCs (Definition 5.1).

Vertices are R1 row indices; a hyperedge joins every set of tuples that
would violate some DC if assigned the same FK value.  A *proper coloring*
(no edge monochromatic) therefore yields a DC-satisfying FK assignment
(Proposition 5.2 — tested in ``tests/phase2``).

The graph works on vertex *positions* (indices into the ascending
``vertices``): binary edges are CSR adjacency over positions, and only
DCs of arity ≥ 3 keep Python hyperedges, as position tuples.  A coloring
is one color id per position, ``-1`` for uncolored.
:meth:`ConflictHypergraph.order` and :meth:`ConflictHypergraph.forbidden`
are the two halves of Algorithm 3 that every largest-first coloring
shares.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

__all__ = ["ConflictHypergraph"]


class ConflictHypergraph:
    """A hypergraph over R1 row ids: CSR pairs plus k-ary hyperedges.

    ``vertices`` are ascending unique row ids; ``lo``/``hi`` list each
    binary edge once as vertex positions with ``lo < hi``; ``hyperedges``
    are unique ascending position tuples of length ≥ 3.
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
            for i in edge:
                self._incident.setdefault(i, []).append(edge)
        members = np.fromiter(
            (i for edge in self.hyperedges for i in edge), dtype=np.int64
        )
        self.degrees = counts + np.bincount(members, minlength=n)
        # Plain-Python views for the per-vertex coloring loop.
        self._indptr: List[int] = self.indptr.tolist()
        self._neighbours: List[int] = self.indices.tolist()

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2 + len(self.hyperedges)

    @property
    def edges(self) -> List[Tuple[int, ...]]:
        """Every edge as an ascending row tuple: pairs, then hyperedges."""
        rows = self.vertices
        src = np.repeat(rows, np.diff(self.indptr))
        dst = rows[self.indices]
        keep = src < dst
        pairs = list(zip(src[keep].tolist(), dst[keep].tolist()))
        return pairs + [tuple(rows[list(e)].tolist()) for e in self.hyperedges]

    def degree(self, v: int) -> int:
        """The degree of row ``v`` (0 when it is no vertex)."""
        i = int(np.searchsorted(self.vertices, v))
        if i < len(self.vertices) and self.vertices[i] == v:
            return int(self.degrees[i])
        return 0

    def order(self, color: np.ndarray) -> List[int]:
        """Algorithm 3's visit order: the uncolored positions by
        non-increasing degree, ties by ascending position (= row id)."""
        uncolored = np.flatnonzero(np.asarray(color) < 0)
        degrees = self.degrees[uncolored]
        return uncolored[np.lexsort((uncolored, -degrees))].tolist()

    def forbidden(self, i: int, color: Sequence[int]) -> Set[int]:
        """The colors position ``i`` may not take: any neighbour's color,
        and a hyperedge's color when all its other members share it."""
        lo, hi = self._indptr[i], self._indptr[i + 1]
        out = set(map(color.__getitem__, self._neighbours[lo:hi]))
        for edge in self._incident.get(i, ()):
            colors = {color[u] for u in edge if u != i}
            if len(colors) == 1:
                out |= colors
        out.discard(-1)
        return out

    def is_proper(self, color: np.ndarray) -> bool:
        """No edge has all members the same color (uncolored ≠ colored)."""
        color = np.asarray(color)
        src = np.repeat(np.arange(len(self.vertices)), np.diff(self.indptr))
        same = color[src] == color[self.indices]
        if (same & (color[src] >= 0)).any():
            return False
        for edge in self.hyperedges:
            colors = set(color[list(edge)].tolist())
            if len(colors) == 1 and -1 not in colors:
                return False
        return True
