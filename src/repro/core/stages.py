"""Pluggable Phase-II stage registry.

The pipeline's Phase II — turning the Phase-I view assignment into a
concrete FK column — has more than one valid realisation: the paper's
list coloring (Algorithms 3-4) and the capacity-capped variant of the
future-work extension.  Rather than parallel ``solve_*`` entrypoints,
each realisation registers here as a named *strategy* and the solver
dispatches by name, so new Phase-II behaviours (quota coloring, soft
capacities, …) plug in without touching the orchestration layer.

A strategy is a callable::

    strategy(r1, r2, dcs, assignment, catalog, fk_column,
             *, ccs, config, options) -> Phase2Result

where ``options`` carries the strategy-specific knobs (e.g. the capacity
strategy's ``max_per_key``).  Every built-in parses its options into a
per-partition key cap and calls the same
:func:`repro.phase2.fk_assignment.run_phase2`.  Built-in strategies load
lazily so that importing :mod:`repro.core` never drags in the extension
modules.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, Tuple

from repro.errors import ReproError

__all__ = [
    "register_phase2_strategy",
    "phase2_strategy",
    "phase2_strategies",
]

_REGISTRY: Dict[str, Callable] = {}

#: Built-in strategies and the module whose import registers them.
#: ``phase2_strategies()`` lists these even before their modules load, so
#: front ends (spec validation, CLI help) see the full menu up front.
_BUILTIN = {
    "coloring": "repro.core.stages",
    "capacity": "repro.extensions.capacity",
    "soft_capacity": "repro.extensions.soft_capacity",
    "quota_coloring": "repro.extensions.quota_coloring",
}


def register_phase2_strategy(name: str) -> Callable[[Callable], Callable]:
    """Class/function decorator registering a Phase-II strategy."""

    def decorator(fn: Callable) -> Callable:
        _REGISTRY[name] = fn
        return fn

    return decorator


def phase2_strategy(name: str) -> Callable:
    """Look up a registered strategy, loading built-ins on demand."""
    if name not in _REGISTRY and name in _BUILTIN:
        importlib.import_module(_BUILTIN[name])
    if name not in _REGISTRY:
        known = ", ".join(sorted(set(_REGISTRY) | set(_BUILTIN)))
        raise ReproError(
            f"unknown Phase-II strategy {name!r} (known: {known})"
        )
    return _REGISTRY[name]


def phase2_strategies() -> Tuple[str, ...]:
    """Names of every strategy currently known (built-ins included)."""
    return tuple(sorted(set(_REGISTRY) | set(_BUILTIN)))


@register_phase2_strategy("coloring")
def _coloring_strategy(
    r1,
    r2,
    dcs,
    assignment,
    catalog,
    fk_column,
    *,
    ccs=(),
    config=None,
    options=None,
):
    """The paper's Algorithm 3/4 list coloring (the default Phase II)."""
    from repro.core.config import SolverConfig
    from repro.phase2.fk_assignment import run_phase2

    if options:
        raise ReproError(
            f"the coloring strategy takes no options, got {sorted(options)}"
        )
    config = config or SolverConfig()
    return run_phase2(
        r1,
        r2,
        dcs,
        assignment,
        catalog,
        fk_column,
        ccs=ccs,
        partitioned=config.partitioned_coloring,
    )
