"""Intervalization and binning (Section 4.1).

Creating one ILP variable per full-domain value combination would blow up,
so the paper *intervalizes*: the endpoints of all CC interval conditions
split each numeric domain into elementary intervals, and R1 tuples are
*binned* by their vector of (elementary interval | categorical value) over
the non-key R1 attributes.  By construction an elementary interval is either
wholly inside or wholly outside every CC condition, so membership of a bin
in a CC's selection is exact.

The bin counts are simultaneously the *all-way marginals* of R1 used to
augment the ILP (Section 4.1, "Augmenting with All-Way Marginals").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.constraints.cc import CardinalityConstraint
from repro.errors import ConstraintError
from repro.relational.predicate import Interval, Predicate, ValueSet
from repro.relational.relation import Relation
from repro.relational.types import Dtype, IntDomain

__all__ = ["Binning", "build_binning", "first_seen_groups", "fuse_codes"]


@dataclass
class Binning:
    """Maps R1 rows to bin keys and bins to representative predicates."""

    attrs: Tuple[str, ...]
    #: For each numeric attribute: sorted elementary-interval start points
    #: plus a final sentinel, so interval ``i`` spans
    #: ``[starts[i], starts[i+1] - 1]``.
    starts: Dict[str, np.ndarray]
    #: Upper bound of the last interval per numeric attribute.
    his: Dict[str, float]

    def is_numeric(self, attr: str) -> bool:
        return attr in self.starts

    def interval(self, attr: str, index: int) -> Interval:
        starts = self.starts[attr]
        lo = float(starts[index])
        hi = (
            float(starts[index + 1]) - 1
            if index + 1 < len(starts)
            else self.his[attr]
        )
        return Interval(lo, hi)

    def intervals(self, attr: str) -> List[Interval]:
        return [self.interval(attr, i) for i in range(len(self.starts[attr]))]

    # ------------------------------------------------------------------
    # Binning rows
    # ------------------------------------------------------------------
    def key_codes(
        self,
        relation: Relation,
        attr: str,
        indices: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, int]:
        """Dense bin-component codes of one attribute and their span.

        Numeric attributes are intervalized on the column's distinct
        values (the cached :meth:`Relation.codes` factorization) and the
        result broadcast back through the codes — one ``searchsorted``
        over the uniques instead of one over every row; the code *is*
        the elementary-interval index.  Categorical attributes use the
        factorization codes as they are.  Codes lie in ``[0, span)``.

        Raises :class:`ConstraintError` when a selected numeric value
        lies outside ``[starts[0], his[attr]]``: no interval holds it.
        """
        codes, uniques = relation.codes(attr)
        if indices is not None:
            codes = codes[indices]
        if not self.is_numeric(attr):
            return codes, len(uniques)
        starts = self.starts[attr]
        unique_comp = np.searchsorted(starts, uniques, side="right") - 1
        outside = (unique_comp < 0) | (uniques > self.his[attr])
        if outside[codes].any():
            raise ConstraintError(
                f"values outside the domain of attribute {attr!r}"
            )
        return unique_comp[codes], len(starts)

    def key_arrays(
        self, relation: Relation, indices: Optional[np.ndarray] = None
    ) -> List[np.ndarray]:
        """Per-attribute key component arrays for (a subset of) a relation.

        A numeric component is the elementary-interval index
        (:meth:`key_codes`); a categorical one is the raw value.
        """
        out = []
        for attr in self.attrs:
            if self.is_numeric(attr):
                out.append(self.key_codes(relation, attr, indices)[0])
            else:
                values = relation.column(attr)
                out.append(values if indices is None else values[indices])
        return out

    def bin_keys(
        self, relation: Relation, indices: Optional[np.ndarray] = None
    ) -> List[tuple]:
        """The bin key of each (selected) row."""
        arrays = self.key_arrays(relation, indices)
        n = len(arrays[0]) if arrays else 0
        return [tuple(arr[i] for arr in arrays) for i in range(n)]

    def bin_counts(
        self, relation: Relation, indices: Optional[np.ndarray] = None
    ) -> Dict[tuple, int]:
        counts: Dict[tuple, int] = {}
        for key in self.bin_keys(relation, indices):
            counts[key] = counts.get(key, 0) + 1
        return counts

    def bin_members(
        self, relation: Relation, indices: Optional[np.ndarray] = None
    ) -> Dict[tuple, List[int]]:
        """Row indices (into the original relation) per bin.

        Bins appear in order of first appearance in ``indices`` and list
        their rows in ``indices`` order; each key holds the components of
        the bin's first row, exactly as a per-row ``setdefault`` builds.
        """
        if indices is None:
            indices = np.arange(len(relation), dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return {}
        arrays = self.key_arrays(relation, indices)
        ids, count = fuse_codes(
            [self.key_codes(relation, attr, indices) for attr in self.attrs],
            indices.size,
        )
        members: Dict[tuple, List[int]] = {}
        for positions in first_seen_groups(ids, count):
            key = tuple(arr[positions[0]] for arr in arrays)
            members[key] = indices[positions].tolist()
        return members

    # ------------------------------------------------------------------
    # Bin ↔ predicate correspondence
    # ------------------------------------------------------------------
    def bin_predicate(self, key: tuple) -> Predicate:
        """A predicate that matches exactly the rows of this bin."""
        conditions = {}
        for attr, component in zip(self.attrs, key):
            if self.is_numeric(attr):
                conditions[attr] = self.interval(attr, int(component))
            else:
                conditions[attr] = ValueSet([component])
        return Predicate(conditions)

    def bin_matches(self, key: tuple, predicate: Predicate) -> bool:
        """Does every row of the bin satisfy ``predicate``?

        Exact because elementary intervals never straddle a CC endpoint.
        """
        for attr, component in zip(self.attrs, key):
            cond = predicate.condition(attr)
            if cond is None:
                continue
            if self.is_numeric(attr):
                if not self.interval(attr, int(component)).is_subset_of(cond):
                    return False
            else:
                if not cond.matches(component):
                    return False
        return True


def build_binning(
    relation: Relation,
    attrs: Sequence[str],
    ccs: Iterable[CardinalityConstraint],
    domains: Optional[Mapping[str, IntDomain]] = None,
) -> Binning:
    """Intervalize the numeric attributes in ``attrs`` against ``ccs``.

    Domain bounds default to the observed min/max of each column, widened
    by any explicit :class:`IntDomain` passed in ``domains``.
    """
    domains = domains or {}
    starts: Dict[str, np.ndarray] = {}
    his: Dict[str, float] = {}

    for attr in attrs:
        if relation.schema.dtype(attr) is not Dtype.INT:
            continue
        column = relation.column(attr)
        lo = float(column.min()) if len(column) else 0.0
        hi = float(column.max()) if len(column) else 0.0
        domain = domains.get(attr)
        if isinstance(domain, IntDomain) and domain.is_finite:
            lo = min(lo, domain.lo)
            hi = max(hi, domain.hi)

        points = {lo}
        for cc in ccs:
            for disjunct in cc.disjuncts:
                cond = disjunct.condition(attr)
                if isinstance(cond, Interval):
                    if math.isfinite(cond.lo) and cond.lo > lo:
                        points.add(cond.lo)
                    if math.isfinite(cond.hi) and cond.hi + 1 <= hi:
                        points.add(cond.hi + 1)
        if len(points) == 1:
            # No CC cuts this attribute; the paper's binning keeps such
            # columns at raw-value granularity (Example 4.1 lists Multi-ling
            # 0 and 1 as distinct tuple types), so leave it categorical.
            continue
        starts[attr] = np.asarray(sorted(points), dtype=np.float64)
        his[attr] = hi

    return Binning(attrs=tuple(attrs), starts=starts, his=his)


def fuse_codes(
    columns: Sequence[Tuple[np.ndarray, int]], n: int
) -> Tuple[np.ndarray, int]:
    """Dense group ids of ``n`` rows that agree on every code column.

    ``columns`` holds ``(codes, span)`` pairs with codes in ``[0, span)``.
    The running id is re-factorised after each column, so the fused key
    ``ids * span + codes`` stays below ``n * span`` and no ``n × k``
    matrix is built.  Ids follow the lexicographic order of the rows'
    code tuples; returns ``(ids, number_of_groups)``.
    """
    ids = np.zeros(n, dtype=np.int64)
    count = 1 if n else 0
    for codes, span in columns:
        uniques, inverse = np.unique(ids * span + codes, return_inverse=True)
        ids = inverse.reshape(-1).astype(np.int64, copy=False)
        count = len(uniques)
    return ids, count


def first_seen_groups(ids: np.ndarray, count: int) -> List[np.ndarray]:
    """Positions of each id in ``ids`` (ids in ``[0, count)``).

    Each group lists its positions in ascending order; groups come in
    order of first appearance, as a per-row ``setdefault`` fills a dict.
    """
    order = np.argsort(ids, kind="stable")
    sizes = np.bincount(ids, minlength=count)
    groups = np.split(order, np.cumsum(sizes)[:-1])
    return sorted((g for g in groups if g.size), key=lambda g: int(g[0]))
