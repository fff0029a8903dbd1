"""Selection predicates: conjunctions of per-attribute conditions.

The paper restricts cardinality-constraint selection conditions to
conjunctions of atoms ``A ◦ c`` with ``◦ ∈ {=, <, >, ≤, ≥}`` (Definition
2.4).  We normalise every atom into one of two *condition* forms:

* :class:`Interval` — a closed interval over an integer column.  ``Age > 24``
  becomes ``[25, +inf)`` (clipped to the column domain when known).
* :class:`ValueSet` — a finite set over a categorical column; equality atoms
  become singletons.

Normalised conditions support exact subset / disjointness / intersection
tests, which are precisely the operations Definitions 4.2–4.4 need to label
pairs of cardinality constraints as *disjoint*, *contained* or
*intersecting*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

from repro.errors import PredicateError
from repro.relational.types import CatDomain, Domain, IntDomain

__all__ = [
    "Condition",
    "Interval",
    "ValueSet",
    "Predicate",
    "condition_from_atom",
    "TRUE_PREDICATE",
]

_COMPARISON_OPS = ("==", "!=", "<", ">", "<=", ">=")


class Condition:
    """A constraint on the values of one attribute."""

    def matches(self, value: object) -> bool:
        raise NotImplementedError

    def mask(self, values: np.ndarray) -> np.ndarray:
        """Vectorised membership test over a column array."""
        raise NotImplementedError

    def is_subset_of(self, other: "Condition") -> bool:
        raise NotImplementedError

    def is_disjoint_from(self, other: "Condition") -> bool:
        raise NotImplementedError

    def intersect(self, other: "Condition") -> Optional["Condition"]:
        """The conjunction of two conditions, or ``None`` when empty."""
        raise NotImplementedError


@dataclass(frozen=True)
class Interval(Condition):
    """A closed numeric interval ``[lo, hi]`` (endpoints may be infinite)."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise PredicateError(f"empty interval [{self.lo}, {self.hi}]")

    def matches(self, value: object) -> bool:
        try:
            return bool(self.lo <= value <= self.hi)
        except TypeError:
            return False

    def mask(self, values: np.ndarray) -> np.ndarray:
        return (values >= self.lo) & (values <= self.hi)

    def is_subset_of(self, other: Condition) -> bool:
        if not isinstance(other, Interval):
            return False
        return other.lo <= self.lo and self.hi <= other.hi

    def is_disjoint_from(self, other: Condition) -> bool:
        if not isinstance(other, Interval):
            return True
        return self.hi < other.lo or other.hi < self.lo

    def intersect(self, other: Condition) -> Optional[Condition]:
        if not isinstance(other, Interval):
            return None
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class ValueSet(Condition):
    """A finite set of permitted categorical values."""

    values: frozenset

    def __init__(self, values: Iterable[object]) -> None:
        object.__setattr__(self, "values", frozenset(values))
        if not self.values:
            raise PredicateError("empty value set")

    def matches(self, value: object) -> bool:
        return value in self.values

    def mask(self, values: np.ndarray) -> np.ndarray:
        if len(self.values) == 1:
            (only,) = self.values
            return values == only
        return np.isin(values, list(self.values))

    def is_subset_of(self, other: Condition) -> bool:
        if not isinstance(other, ValueSet):
            return False
        return self.values <= other.values

    def is_disjoint_from(self, other: Condition) -> bool:
        if not isinstance(other, ValueSet):
            return True
        return not (self.values & other.values)

    def intersect(self, other: Condition) -> Optional[Condition]:
        if not isinstance(other, ValueSet):
            return None
        common = self.values & other.values
        if not common:
            return None
        return ValueSet(common)

    def __repr__(self) -> str:
        return "{" + ", ".join(sorted(map(repr, self.values))) + "}"


def condition_from_atom(
    op: str, value: object, domain: Optional[Domain] = None
) -> Condition:
    """Normalise an atom ``attr ◦ value`` into a :class:`Condition`.

    Numeric comparisons are converted to closed intervals assuming integer
    columns (``Age > 24`` → ``[25, +inf)``), clipped to the column domain
    when one is supplied.  ``!=`` is supported only for categorical columns
    with a known finite domain, where it becomes the complement value set.
    """
    if op not in _COMPARISON_OPS:
        raise PredicateError(f"unsupported operator {op!r}")

    if isinstance(value, (bool, int, np.integer)):
        lo = -math.inf
        hi = math.inf
        if isinstance(domain, IntDomain):
            lo, hi = domain.lo, domain.hi
        value = int(value)
        if op == "==":
            return Interval(value, value)
        if op == "<":
            return Interval(lo, value - 1)
        if op == "<=":
            return Interval(lo, value)
        if op == ">":
            return Interval(value + 1, hi)
        if op == ">=":
            return Interval(value, hi)
        raise PredicateError("!= is not supported on integer columns")

    if op == "==":
        return ValueSet([value])
    if op == "!=":
        if not isinstance(domain, CatDomain):
            raise PredicateError(
                "!= on a categorical column requires a finite domain"
            )
        rest = domain.members - {value}
        if not rest:
            raise PredicateError(f"{value!r} != excludes the whole domain")
        return ValueSet(rest)
    raise PredicateError(f"operator {op!r} is invalid for categorical values")


@dataclass(frozen=True)
class Predicate:
    """A conjunctive selection predicate: one condition per attribute.

    The attribute → condition mapping is stored as a sorted tuple of pairs so
    predicates are hashable and order-insensitive.
    """

    items: tuple

    def __init__(self, conditions: Mapping[str, Condition]) -> None:
        object.__setattr__(
            self,
            "items",
            tuple(sorted(conditions.items(), key=lambda kv: kv[0])),
        )

    @property
    def conditions(self) -> dict:
        return dict(self.items)

    @property
    def attributes(self) -> frozenset:
        return frozenset(attr for attr, _ in self.items)

    def condition(self, attr: str) -> Optional[Condition]:
        for name, cond in self.items:
            if name == attr:
                return cond
        return None

    @property
    def is_trivial(self) -> bool:
        return not self.items

    _MISSING = object()

    def matches_row(self, row: Mapping[str, object]) -> bool:
        """Row-level evaluation; a missing attribute never matches.

        Partial rows arise naturally in Phase I (B-columns not yet
        assigned); a predicate constraining an absent attribute is simply
        unsatisfied rather than an error.
        """
        for attr, cond in self.items:
            value = row.get(attr, Predicate._MISSING)
            if value is Predicate._MISSING or not cond.matches(value):
                return False
        return True

    def mask(self, columns: Mapping[str, np.ndarray], n: int) -> np.ndarray:
        """Boolean mask over ``n`` rows stored in ``columns``."""
        out = np.ones(n, dtype=bool)
        for attr, cond in self.items:
            out &= cond.mask(columns[attr])
        return out

    def restrict(self, attrs: Iterable[str]) -> "Predicate":
        """Keep only conditions on the given attributes."""
        keep = set(attrs)
        return Predicate({a: c for a, c in self.items if a in keep})

    def drop(self, attrs: Iterable[str]) -> "Predicate":
        """Remove conditions on the given attributes."""
        omit = set(attrs)
        return Predicate({a: c for a, c in self.items if a not in omit})

    def conjoin(self, other: "Predicate") -> Optional["Predicate"]:
        """The conjunction of two predicates, or ``None`` when empty."""
        merged = self.conditions
        for attr, cond in other.items:
            if attr in merged:
                meet = merged[attr].intersect(cond)
                if meet is None:
                    return None
                merged[attr] = meet
            else:
                merged[attr] = cond
        return Predicate(merged)

    def is_subset_of(self, other: "Predicate") -> bool:
        """Definition 4.3 containment on raw predicates.

        ``self ⊆ other`` holds when ``self`` constrains a (non-strict)
        superset of the attributes of ``other`` and, on every attribute
        ``other`` constrains, ``self``'s values are a subset.
        """
        mine = self.conditions
        for attr, cond in other.items:
            if attr not in mine or not mine[attr].is_subset_of(cond):
                return False
        return True

    def is_disjoint_from(self, other: "Predicate") -> bool:
        """True when no row can satisfy both predicates."""
        mine = self.conditions
        for attr, cond in other.items:
            if attr in mine and mine[attr].is_disjoint_from(cond):
                return True
        return False

    def __repr__(self) -> str:
        if not self.items:
            return "Predicate(TRUE)"
        body = " & ".join(f"{a}∈{c!r}" for a, c in self.items)
        return f"Predicate({body})"


TRUE_PREDICATE = Predicate({})
