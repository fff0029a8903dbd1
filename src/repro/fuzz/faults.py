"""Deterministic solver-fault and result-corruption injection.

Two context managers, active for the span of a ``with`` block:

* :func:`failing_solver` — the Nth in-process edge solve
  (:func:`repro.core.parallel_snowflake.solve_edge`) raises
  :class:`InjectedFault`.  The oracle uses it to prove (a) that
  ``synthesize()`` is transactional — the failure propagates and no
  partially-synthesized database escapes — and (b) that a cache-backed
  :func:`repro.service.engine.run_spec` resumes from its per-edge
  checkpoints to byte-identical output.  It patches every module that
  holds a ``solve_edge`` reference, and a pool worker solves with its own
  copy of that patch and of its counter, so it is for ``workers = 0``
  runs; the oracle's fault legs run on the baseline cell;
* :func:`chaos_edge` — the Nth edge *commit*
  (:meth:`repro.core.snowflake.SnowflakeSynthesizer.commit_edge`) has
  its FK values rolled by one.  The run completes but its database
  diverges from an uncorrupted run, for the oracle → minimizer → replay
  pipeline to catch, shrink and reproduce — the fuzzer testing itself.
  Commits happen in the parent process in BFS order at any worker
  count, so the same edge is corrupted whatever ``workers`` is.

``synthesize()`` and the service's ``run_spec`` run the one traversal in
:mod:`repro.core.snowflake`, so each patch covers both.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator

import numpy as np

from repro.core import parallel_snowflake, snowflake
from repro.core.snowflake import SnowflakeSynthesizer
from repro.errors import SolverError

__all__ = ["InjectedFault", "failing_solver", "chaos_edge"]

#: Every module whose global namespace holds a ``solve_edge`` reference.
_PATCH_SITES = (parallel_snowflake, snowflake)


class InjectedFault(SolverError):
    """The deterministic failure :func:`failing_solver` raises."""


@contextmanager
def _patched(wrapper: Callable) -> Iterator[None]:
    originals = [site.solve_edge for site in _PATCH_SITES]
    for site in _PATCH_SITES:
        site.solve_edge = wrapper
    try:
        yield
    finally:
        for site, original in zip(_PATCH_SITES, originals):
            site.solve_edge = original


@contextmanager
def failing_solver(fail_on: int) -> Iterator[Dict[str, int]]:
    """Raise :class:`InjectedFault` on the ``fail_on``-th edge solve.

    Counts in-process solves from 0 in traversal order; yields the live
    counter dict (``{"calls": n}``) so callers can assert how far the
    run got before the injected failure.
    """
    counter = {"calls": 0}
    original = parallel_snowflake.solve_edge

    def wrapper(extended, parent, fk_column, constraints, config):
        index = counter["calls"]
        counter["calls"] += 1
        if index == fail_on:
            raise InjectedFault(
                f"injected solver fault on edge #{fail_on} "
                f"(fk column {fk_column!r})"
            )
        return original(extended, parent, fk_column, constraints, config)

    with _patched(wrapper):
        yield counter


@contextmanager
def chaos_edge(corrupt_on: int) -> Iterator[Dict[str, int]]:
    """Deterministically corrupt the ``corrupt_on``-th committed edge.

    Counts commits from 0 in traversal order and yields the live counter
    dict (``{"calls": n}``).  The solve itself succeeds; the FK values it
    commits are rolled by one position — a no-op when the child has
    fewer than two rows or every row got the same parent, so callers
    that *need* a divergence should pick their edge (or seed)
    accordingly.
    """
    counter = {"calls": 0}
    saved = SnowflakeSynthesizer.__dict__["commit_edge"]
    commit = SnowflakeSynthesizer.commit_edge

    def wrapper(database, fk, fk_spec, fk_values, r2_hat):
        index = counter["calls"]
        counter["calls"] += 1
        if index == corrupt_on:
            fk_values = np.roll(fk_values, 1)
        commit(database, fk, fk_spec, fk_values, r2_hat)

    SnowflakeSynthesizer.commit_edge = staticmethod(wrapper)
    try:
        yield counter
    finally:
        SnowflakeSynthesizer.commit_edge = saved
