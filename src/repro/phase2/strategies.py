"""Phase-II strategies: the per-key cap each combo partition is colored with.

The paper has one Phase II (Algorithms 3-4) and names a cap on "the
number of rows that share the same foreign key" as future work.  Every
strategy here runs that same :func:`~repro.phase2.fk_assignment.run_phase2`
and differs only in the :class:`~repro.phase2.coloring.KeyCap` each combo
partition gets:

* ``coloring`` (the default) — no cap: the paper's list coloring;
* ``capacity`` — the hard cap ``max_per_key`` on every combo: a key at
  its cap is forbidden, and saturated vertices get fresh parent tuples;
* ``soft_capacity`` — ``max_per_key`` as a penalised objective: a vertex
  may push a key past its cap at ``penalty`` per row of overflow, unless
  that costs more than ``new_tuple_cost`` (the price of a fresh parent
  tuple).  ``penalty = inf`` makes the cap hard, output-identically to
  ``capacity``.  The overflow accepted is reported in
  :attr:`~repro.phase2.fk_assignment.Phase2Result.overflow`;
* ``quota_coloring`` — a hard cap per combo: the ``quota`` of the first
  ``quotas`` entry whose ``match`` values all equal the combo's, else
  ``default_quota``.  With neither it is output-identical to
  ``coloring``, and a lone ``default_quota = N`` to ``capacity`` with
  ``max_per_key = N``.

:func:`key_caps` turns a strategy's options into those caps without
reading any data, so spec validation checks them when a spec is loaded;
only a quota's ``match`` attributes wait for R2, in the runner that
:func:`phase2_strategy` returns.
"""

from __future__ import annotations

import functools
import math
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.dc import DenialConstraint
from repro.errors import ReproError
from repro.phase1.assignment import ViewAssignment
from repro.phase1.combos import ComboCatalog
from repro.phase2.coloring import KeyCap
from repro.phase2.fk_assignment import Phase2Result, run_phase2
from repro.relational.relation import Relation

__all__ = [
    "STRATEGY_OPTIONS",
    "combo_cap",
    "key_caps",
    "phase2_strategies",
    "phase2_strategy",
    "resolve_strategy",
]

#: ``(match, cap)`` entries; a combo takes the first one that matches.
Quotas = List[Tuple[Dict[str, Any], KeyCap]]

#: Every strategy and the options it accepts.
STRATEGY_OPTIONS: Dict[str, Tuple[str, ...]] = {
    "coloring": (),
    "capacity": ("max_per_key",),
    "soft_capacity": ("max_per_key", "penalty", "new_tuple_cost"),
    "quota_coloring": ("quotas", "default_quota"),
}


def phase2_strategies() -> Tuple[str, ...]:
    """Every strategy name, sorted."""
    return tuple(sorted(STRATEGY_OPTIONS))


def _accepted_options(strategy: str) -> Tuple[str, ...]:
    try:
        return STRATEGY_OPTIONS[strategy]
    except KeyError:
        raise ReproError(
            f"unknown Phase-II strategy {strategy!r} "
            f"(known: {', '.join(phase2_strategies())})"
        ) from None


def resolve_strategy(
    strategy: Optional[str],
    capacity: Any,
    options: Mapping[str, Any],
) -> Tuple[str, Dict[str, Any]]:
    """The ``(strategy, options)`` an FK edge solves with.

    An edge's ``capacity`` is its ``max_per_key`` (an explicit option
    wins) and picks ``"capacity"`` when no strategy is named; an edge
    with neither runs ``"coloring"``.
    """
    resolved = dict(options)
    if capacity is not None:
        if strategy not in (None, "capacity", "soft_capacity"):
            raise ReproError(
                "capacity only combines with the 'capacity'/'soft_capacity' "
                f"strategies, not {strategy!r}; use a strategy option instead"
            )
        resolved.setdefault("max_per_key", capacity)
    if strategy is None:
        strategy = "coloring" if capacity is None else "capacity"
    return strategy, resolved


def _number(options: Mapping[str, Any], name: str, default: float) -> float:
    value = options.get(name, default)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ReproError(
            f"soft_capacity {name!r} must be a number, got {value!r}"
        ) from None


def _hard_cap(quota: Any, message: str) -> KeyCap:
    try:
        return KeyCap(quota)
    except ReproError:
        raise ReproError(message) from None


def _quotas(entries: Any) -> Quotas:
    if not isinstance(entries, (list, tuple)):
        raise ReproError(
            "quota_coloring 'quotas' must be a list of {match, quota} entries"
        )
    quotas: Quotas = []
    for entry in entries:
        if not isinstance(entry, Mapping):
            raise ReproError(
                f"quota entry {entry!r} is not a {{match, quota}} table"
            )
        unknown = set(entry) - {"match", "quota"}
        if unknown:
            raise ReproError(
                f"unknown quota entry fields {sorted(unknown)} "
                "(known: ['match', 'quota'])"
            )
        match = entry.get("match", {})
        if not isinstance(match, Mapping):
            raise ReproError(
                f"quota entry match {match!r} must map attributes to values"
            )
        cap = _hard_cap(
            entry.get("quota"),
            f"quota entry {entry!r} needs an integer quota >= 1",
        )
        quotas.append((dict(match), cap))
    return quotas


def key_caps(
    strategy: str, options: Mapping[str, Any]
) -> Tuple[Quotas, Optional[KeyCap]]:
    """``(quotas, default)``: the per-combo caps ``strategy`` colors with.

    A combo takes the cap of the first ``quotas`` entry that matches it,
    else ``default`` (:func:`combo_cap`); ``None`` leaves it uncapped.
    Raises :class:`ReproError` for an unknown strategy or option and for
    an invalid option value.
    """
    accepted = _accepted_options(strategy)
    unknown = set(options) - set(accepted)
    if unknown:
        raise ReproError(
            f"unknown {strategy} strategy options {sorted(unknown)} "
            f"(known: {list(accepted)})"
        )
    if strategy == "coloring":
        return [], None
    if strategy == "quota_coloring":
        default = options.get("default_quota")
        if default is not None:
            default = _hard_cap(
                default,
                "quota_coloring 'default_quota' must be an integer >= 1, "
                f"got {default!r}",
            )
        return _quotas(options.get("quotas", [])), default
    max_per_key = options.get("max_per_key")
    if strategy == "capacity":
        return [], KeyCap(max_per_key)
    penalty = _number(options, "penalty", 1.0)
    new_tuple_cost = _number(options, "new_tuple_cost", math.inf)
    if not penalty > 0:
        raise ReproError("soft_capacity 'penalty' must be positive")
    if not new_tuple_cost >= 0:
        raise ReproError("soft_capacity 'new_tuple_cost' must be >= 0")
    return [], KeyCap(max_per_key, penalty, new_tuple_cost)


def combo_cap(
    values: Mapping[str, Any],
    quotas: Quotas,
    default: Optional[KeyCap],
) -> Optional[KeyCap]:
    """The cap of the combo with attribute ``values``: the first entry
    whose ``match`` values all equal the combo's, else ``default``."""
    for match, cap in quotas:
        if all(values.get(attr) == value for attr, value in match.items()):
            return cap
    return default


def phase2_strategy(name: str) -> Callable[..., Phase2Result]:
    """The Phase-II runner of strategy ``name``::

        run(r1, r2, dcs, assignment, catalog, fk_column,
            *, ccs=(), options=None) -> Phase2Result
    """
    _accepted_options(name)
    return functools.partial(_run, name)


def _run(
    strategy: str,
    r1: Relation,
    r2: Relation,
    dcs: Sequence[DenialConstraint],
    assignment: ViewAssignment,
    catalog: ComboCatalog,
    fk_column: str,
    *,
    ccs: Sequence[CardinalityConstraint] = (),
    options: Optional[Mapping[str, Any]] = None,
) -> Phase2Result:
    """Run Phase II with ``strategy``'s caps."""
    quotas, default = key_caps(strategy, options or {})
    # A typo'd match attribute would silently match nothing and disable
    # the quota — fail loudly against R2's actual combo attributes.
    known = set(catalog.attrs)
    for match, _ in quotas:
        bad = set(match) - known
        if bad:
            raise ReproError(
                "quota match references unknown R2 attributes "
                f"{sorted(bad)} (known: {sorted(known)})"
            )

    def cap_of(combo: tuple) -> Optional[KeyCap]:
        return combo_cap(catalog.as_dict(combo), quotas, default)

    return run_phase2(
        r1,
        r2,
        dcs,
        assignment,
        catalog,
        fk_column,
        ccs=ccs,
        cap_of=cap_of if quotas or default is not None else None,
    )
