"""Dependency-keyed edge fingerprints for incremental re-synthesis.

An FK edge's solve is a pure function of (a) the edge's own constraint
set, strategy and result-affecting solver options, and (b) the contents
of every relation its solve reads — its child's completed-FK closure
plus the parent.  Because the traversal is deterministic (BFS order,
byte-identical at any worker count), those read contents are themselves
determined by the *fingerprints* of the edges solved before it: solving
an edge rewrites its child and parent in a way fully described by the
edge's own fingerprint.

:func:`edge_fingerprints` therefore computes every edge's fingerprint
*statically*, by simulating the traversal over per-relation state
digests — no solving, no solver output, just content hashes of the
input relations (:meth:`~repro.relational.relation.Relation.content_hash`)
folded with each simulated edge commit.  Two submissions agree on an
edge's fingerprint exactly when that edge's solve would read identical
inputs under identical options — the cache key of the service layer's
edge-result cache, in the spirit of PartitionCache's variant caching.

Options that cannot change the output (``workers``, ``storage``,
``chunk_rows``, ``storage_dir``, ``evaluate``, per-edge ``serialize``)
are excluded, so a cache entry survives re-submission under a different
parallelism or storage configuration.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.config import SolverConfig
from repro.phase2.strategies import resolve_strategy
from repro.relational.database import Database
from repro.spec.model import EdgeSpec, SynthesisSpec

__all__ = [
    "NON_RESULT_OPTION_FIELDS",
    "RESULT_OPTION_FIELDS",
    "edge_fingerprints",
    "result_options",
]

#: The :class:`SolverConfig` knobs that can change the synthesized
#: output.  Everything else (parallelism, storage backend, evaluation)
#: is guaranteed byte-identical and stays out of the fingerprint.
RESULT_OPTION_FIELDS = (
    "marginals",
    "soft_ccs",
    "force_ilp",
    "time_limit",
    "mip_gap",
)

#: The documented complement: every remaining :class:`SolverConfig`
#: field, each guaranteed byte-identical-output by the traversal/storage
#: contracts (parallelism by the deterministic traversal, storage by the
#: columnar backend's layout independence, ``evaluate`` because metrics
#: never feed back into the solve).  ``repro-lint``'s F-series check enforces
#: that the two tuples partition ``SolverConfig`` exactly: a new field
#: must be added to one of them — deliberately — before CI passes.
NON_RESULT_OPTION_FIELDS = (
    "workers",
    "evaluate",
    "storage",
    "chunk_rows",
    "storage_dir",
)

#: Bump when the fingerprint's byte layout changes — persisted cache
#: entries keyed by an older scheme must miss, not collide.  Version 3:
#: :meth:`Relation.content_hash` hashes string columns as two streams.
#: Version 4: an edge's Phase-II settings enter as the resolved
#: ``(strategy, options)`` pair, not as written.  Version 5:
#: ``partitioned_coloring`` left the result-affecting options.
_FINGERPRINT_VERSION = 5


def _canonical(value: object) -> object:
    """``value`` reduced to plain JSON-serialisable Python."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _digest(payload: object) -> str:
    data = json.dumps(
        _canonical(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(data.encode()).hexdigest()


def result_options(config: SolverConfig) -> Dict[str, object]:
    """The result-affecting slice of a solver configuration."""
    return {name: getattr(config, name) for name in RESULT_OPTION_FIELDS}


def _edge_config(edge: EdgeSpec, options: SolverConfig) -> Dict[str, object]:
    """The canonical result-affecting description of one edge's solve.

    Per-edge solver overrides are folded into the global options first
    (mirroring ``EdgeConstraints.effective_config``) and then filtered to
    the result-affecting fields, so ``solver = {workers = 4}`` on an edge
    fingerprints identically to no override at all.  The Phase-II
    settings enter as the ``(strategy, options)`` the solve runs with
    (:func:`~repro.phase2.strategies.resolve_strategy`), so
    ``capacity = 2`` and ``strategy = "capacity"`` with
    ``options = {max_per_key = 2}`` fingerprint alike.
    """
    data = edge.to_dict()
    for name in ("serialize", "solver", "capacity", "strategy", "options"):
        data.pop(name, None)
    data["strategy"], data["options"] = resolve_strategy(
        edge.strategy, edge.capacity, edge.options
    )
    effective = (
        replace(options, **dict(edge.solver)) if edge.solver else options
    )
    data["solver_options"] = result_options(effective)
    return data


def edge_fingerprints(
    spec: SynthesisSpec,
    database: Optional[Database] = None,
) -> Dict[Tuple[str, str], str]:
    """``(child, column) → fingerprint`` for every reachable FK edge.

    ``database`` may pass in an already-materialised
    ``spec.to_database()`` to avoid building (and hashing the sources
    of) the relations twice.  The simulation walks edges in BFS solve
    order, maintaining one digest per relation: an edge's fingerprint
    folds its canonical config with the digests of its read set (child
    closure + parent), then updates the child's and parent's digests —
    exactly the write set of the real solve.  Downstream edges therefore
    inherit any upstream change through the state digests, which is what
    makes "invalidate exactly the dirty read-closure" a key lookup
    instead of a graph analysis.
    """
    spec.validate()
    if database is None:
        database = spec.to_database()
    edge_specs = {(e.child, e.column): e for e in spec.edges}
    state = {
        name: "rel:" + database.relation(name).content_hash()
        for name in database.relation_names
    }
    fingerprints: Dict[Tuple[str, str], str] = {}
    completed: set = set()
    for fk in database.bfs_edges(spec.fact()):
        key = (fk.child, fk.column)
        reads = database.completed_closure(fk.child, completed)
        reads.add(fk.parent)
        fingerprint = _digest(
            {
                "version": _FINGERPRINT_VERSION,
                "edge": [fk.child, fk.column, fk.parent],
                "config": _edge_config(edge_specs[key], spec.options),
                "reads": sorted(
                    (name, state[name]) for name in reads
                ),
            }
        )
        fingerprints[key] = fingerprint
        state[fk.child] = _digest(
            {"carry": state[fk.child], "edge": fingerprint, "role": "child"}
        )
        state[fk.parent] = _digest(
            {"carry": state[fk.parent], "edge": fingerprint, "role": "parent"}
        )
        completed.add(key)
    return fingerprints
