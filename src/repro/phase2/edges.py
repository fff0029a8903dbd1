"""Vectorised denial-constraint kernels: conflict edges and DC error.

For the (dominant) binary DCs the kernels evaluate each DC's unary atoms
as numpy masks and its cross-tuple atoms over broadcast row-index arrays,
so ``m`` candidate pairs cost ``O(m)`` numpy work instead of ``m``
Python-level evaluations.  The same two atom kernels serve Phase II's
conflict edges (Definition 5.1, a broadcast grid over one partition) and
the DC error of Section 6.1 (:func:`violating_rows`, a flat list of the
ordered pairs inside each FK group).  DCs of arity ≥ 3 fall back to a
pruned combinatorial scan (they only occur in small partitions in
practice; the NAE-3SAT reduction is the canonical ternary example).
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.constraints.dc import (
    BinaryAtom,
    DenialConstraint,
    UnaryAtom,
    violating_members,
)
from repro.phase2.hypergraph import ConflictHypergraph
from repro.relational.relation import Relation
from repro.relational.store import NumpyColumnStore

__all__ = [
    "build_conflict_graph",
    "conflicting_pairs",
    "violating_rows",
]

#: Ordered in-group pairs :func:`violating_rows` evaluates per block —
#: bounds its working set however large the FK groups or the relation.
PAIR_BLOCK = 1 << 18

_NP_OPS = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    ">": np.greater,
    "<=": np.less_equal,
    ">=": np.greater_equal,
}


def _unary_mask(
    relation: Relation, rows: np.ndarray, atoms: Sequence[UnaryAtom]
) -> np.ndarray:
    """Which of ``rows`` satisfy all unary atoms.

    Atoms are evaluated on the column's distinct values (via the cached
    :meth:`Relation.codes` factorization) and broadcast back through the
    codes, so repeated partition sweeps never rescan full columns.
    """
    mask = np.ones(len(rows), dtype=bool)
    for atom in atoms:
        codes, uniques = relation.codes(atom.attr)
        if atom.op == "in":
            unique_mask = np.isin(uniques, list(atom.value))
        else:
            unique_mask = _NP_OPS[atom.op](uniques, atom.value)
        mask &= np.asarray(unique_mask, dtype=bool)[codes[rows]]
    return mask


def _binary_mask(
    relation: Relation,
    t1_rows: np.ndarray,
    t2_rows: np.ndarray,
    atoms: Sequence[BinaryAtom],
) -> np.ndarray:
    """Do the tuples ``(t1, t2) = (t1_rows, t2_rows)`` satisfy all atoms?

    The two index arrays broadcast against each other: equal-length
    vectors test a list of pairs, ``a[:, None]`` and ``b[None, :]`` the
    full ``(|a|, |b|)`` grid.
    """
    rows = (t1_rows, t2_rows)
    mask = np.ones(np.broadcast_shapes(t1_rows.shape, t2_rows.shape), bool)
    for atom in atoms:
        left = relation.column(atom.left_attr)[rows[atom.left_var]]
        right = relation.column(atom.right_attr)[rows[atom.right_var]]
        if atom.offset:
            right = right + atom.offset
        mask &= _NP_OPS[atom.op](left, right)
    return mask


def _violating_pairs(
    relation: Relation,
    dc: DenialConstraint,
    rows_a: np.ndarray,
    rows_b: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Positions ``(i, j)`` where ``(t1, t2) = (rows_a[i], rows_b[j])``
    are distinct rows satisfying every atom of the binary ``dc``.

    Only the rows passing each role's unary atoms enter the broadcast
    grid of :func:`_binary_mask`.
    """
    a = np.flatnonzero(_unary_mask(relation, rows_a, dc.unary_atoms(0)))
    b = np.flatnonzero(_unary_mask(relation, rows_b, dc.unary_atoms(1)))
    t1, t2 = rows_a[a, None], rows_b[None, b]
    grid = _binary_mask(relation, t1, t2, dc.binary_atoms) & (t1 != t2)
    i, j = np.nonzero(grid)
    return a[i], b[j]


def _pack(u: np.ndarray, v: np.ndarray, base: int) -> np.ndarray:
    """Each unordered pair as one int64 code ``min * base + max``."""
    return np.minimum(u, v) * base + np.maximum(u, v)


def _sorted_unique(codes: np.ndarray) -> np.ndarray:
    """``np.unique`` of an int64 array as one sort plus a neighbour
    mask, which beats ``np.unique``'s hash-based path on these codes."""
    codes = np.sort(codes)
    keep = np.ones(len(codes), dtype=bool)
    keep[1:] = codes[1:] != codes[:-1]
    return codes[keep]


def conflicting_pairs(
    relation: Relation,
    dc: DenialConstraint,
    rows_a: np.ndarray,
    rows_b: Optional[np.ndarray] = None,
) -> List[Tuple[int, int]]:
    """All unordered row pairs (one from each set) that violate a binary DC,
    sorted, as ``(u, v)`` with ``u < v``.

    ``rows_b`` defaults to ``rows_a`` (within-partition enumeration); when
    distinct it enables the cross enumeration ``solveInvalidTuples`` needs.
    """
    if dc.arity != 2:
        raise ValueError("conflicting_pairs only handles binary DCs")
    rows_a = np.asarray(rows_a, dtype=np.int64)
    rows_b = rows_a if rows_b is None else np.asarray(rows_b, np.int64)
    i, j = _violating_pairs(relation, dc, rows_a, rows_b)
    base = len(relation)
    codes = _sorted_unique(_pack(rows_a[i], rows_b[j], base))
    return list(zip((codes // base).tolist(), (codes % base).tolist()))


def _kary_edges(
    relation: Relation,
    dc: DenialConstraint,
    rows: np.ndarray,
) -> List[Tuple[int, ...]]:
    """Pruned combinatorial scan for DCs of arity ≥ 3 (ascending tuples)."""
    union: Set[int] = set()
    for var in range(dc.arity):
        mask = _unary_mask(relation, rows, dc.unary_atoms(var))
        union.update(rows[mask].tolist())
    union_rows = sorted(union)
    row_cache = {r: relation.row(r) for r in union_rows}
    return [
        combo
        for combo in itertools.combinations(union_rows, dc.arity)
        if dc.violates([row_cache[r] for r in combo])
    ]


def build_conflict_graph(
    relation: Relation,
    dcs: Sequence[DenialConstraint],
    rows: Iterable[int],
) -> ConflictHypergraph:
    """The conflict hypergraph of one partition (Definition 5.1).

    Every binary DC's violating pairs are packed into int64 codes over
    vertex positions and deduplicated across DCs in one pass; DCs of
    arity ≥ 3 contribute hyperedges.
    """
    rows = _sorted_unique(np.fromiter(rows, dtype=np.int64))
    n = len(rows)
    codes = [np.empty(0, dtype=np.int64)]
    hyperedges: Set[Tuple[int, ...]] = set()
    for dc in dcs:
        if dc.arity == 2:
            codes.append(_pack(*_violating_pairs(relation, dc, rows, rows), n))
        else:
            hyperedges.update(_kary_edges(relation, dc, rows))
    lo, hi = np.divmod(_sorted_unique(np.concatenate(codes)), max(n, 1))
    return ConflictHypergraph(rows, lo, hi, sorted(hyperedges))


def _in_memory(relation: Relation, names: Iterable[str]) -> Relation:
    """``relation`` itself, or for a disk-backed one an in-RAM projection
    onto ``names``, so each column is read once, not once per block."""
    if not relation.is_chunked:
        return relation
    names = sorted(set(names))
    return Relation(
        relation.schema.project(names),
        NumpyColumnStore({name: relation.column(name) for name in names}),
    )


def violating_rows(
    relation: Relation,
    fk_column: str,
    dcs: Sequence[DenialConstraint],
) -> np.ndarray:
    """Ascending indices of the rows in some DC violation within their
    FK group — the numerator of the DC error (Section 6.1).

    Rows are sorted by the FK's cached codes, and every row's in-group
    partners are expanded (``repeat``/``cumsum``) into a flat list of
    ordered pairs, at most about :data:`PAIR_BLOCK` pairs at a time.
    Binary DCs are tested on each block with :func:`_unary_mask` and
    :func:`_binary_mask`; listing both orders of every pair covers the
    FOL's quantification over orderings.  DCs of arity ≥ 3 scan each
    large-enough group with :func:`~repro.constraints.dc.violating_members`.
    """
    n = len(relation)
    if n == 0 or not dcs:
        return np.empty(0, dtype=np.int64)
    hit = np.zeros(n, dtype=bool)
    codes, _ = relation.codes(fk_column)
    order = np.argsort(codes, kind="stable")
    ordered = codes[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    sizes = np.diff(np.r_[starts, n])

    binary = [dc for dc in dcs if dc.arity == 2]
    if binary:
        pair_attrs = {
            name
            for dc in binary
            for atom in dc.binary_atoms
            for name in (atom.left_attr, atom.right_attr)
        }
        view = _in_memory(relation, pair_attrs)
        # Per sorted position: its offset inside the group, and how many
        # partners it has (0 for a singleton group).
        group = np.repeat(np.arange(len(starts)), sizes)
        local = np.arange(n) - starts[group]
        degree = sizes[group] - 1
        ends = np.cumsum(degree)
        begins = ends - degree
        lo = 0
        while lo < n:
            hi = int(np.searchsorted(ends, begins[lo] + PAIR_BLOCK, "right"))
            hi = max(hi, lo + 1)
            counts = degree[lo:hi]
            anchor = np.repeat(np.arange(lo, hi), counts)
            # The j-th partner of an anchor skips the anchor itself.
            offsets = np.repeat(begins[lo:hi] - begins[lo], counts)
            j = np.arange(len(anchor)) - offsets
            partner = anchor - local[anchor] + j + (j >= local[anchor])
            t1, t2 = order[anchor], order[partner]
            for dc in binary:
                unary = _unary_mask(relation, t1, dc.unary_atoms(0))
                unary &= _unary_mask(relation, t2, dc.unary_atoms(1))
                keep = np.flatnonzero(unary)
                both = _binary_mask(view, t1[keep], t2[keep], dc.binary_atoms)
                keep = keep[both]
                hit[t1[keep]] = True
                hit[t2[keep]] = True
            lo = hi

    kary = [dc for dc in dcs if dc.arity > 2]
    if kary:
        names = sorted(set().union(*(dc.attributes for dc in kary)))
        cols = {name: relation.column(name) for name in names}
        large = sizes >= min(dc.arity for dc in kary)
        stops = starts + sizes
        for start, stop in zip(starts[large].tolist(), stops[large].tolist()):
            members = order[start:stop]
            group_rows = [
                {name: cols[name][i] for name in names}
                for i in members.tolist()
            ]
            for c in violating_members(group_rows, kary):
                hit[members[c]] = True
    return np.flatnonzero(hit)
