"""The cache-aware synthesis engine behind the job server.

:func:`run_spec` is :func:`repro.spec.synthesize`'s traversal —
:meth:`SnowflakeSynthesizer.solve`, with its BFS layers, conflict-free
batches, process-pool fan-out and byte-identical output — run with
:class:`~repro.core.snowflake.EdgeHooks` that route every edge through
an :class:`~repro.service.cache.EdgeCache`:

1. fingerprint every edge statically
   (:func:`repro.spec.fingerprint.edge_fingerprints`);
2. a hit is spliced straight into the working database
   (:meth:`SnowflakeSynthesizer.commit_edge`) and replays the cached
   report;
3. a miss solves normally and is checkpointed into the cache as soon as
   it is committed — which is what makes a killed run resumable: the
   re-run hits every edge the first run completed.

Editing a spec therefore re-solves exactly the dirty read-closure: an
edge's fingerprint changes iff its config or any upstream input did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.core.snowflake import (
    EdgeConstraints,
    EdgeHooks,
    SnowflakeSynthesizer,
)
from repro.core.synthesizer import CExtensionResult
from repro.errors import ReproError
from repro.relational.database import ForeignKey
from repro.service.cache import CachedEdge, EdgeCache
from repro.spec.api import (
    EdgeReport,
    SynthesisResult,
    edge_constraint_map,
    edge_report,
    spill_guard,
    synthesis_result,
)
from repro.spec.fingerprint import edge_fingerprints
from repro.spec.model import SynthesisSpec

__all__ = ["SynthesisCancelled", "run_spec"]


class SynthesisCancelled(ReproError):
    """The run's ``should_cancel`` hook asked it to stop.

    Raised between edges (a single edge's solve is never interrupted);
    the working database is discarded, and everything solved before the
    cancellation is already checkpointed in the cache.
    """


def run_spec(
    spec: SynthesisSpec,
    *,
    cache: Optional[EdgeCache] = None,
    on_event: Optional[Callable[[Dict[str, object]], None]] = None,
    should_cancel: Optional[Callable[[], bool]] = None,
) -> SynthesisResult:
    """Synthesize ``spec``, splicing cached edges and caching new ones.

    Byte-identical to :func:`repro.spec.synthesize` whatever mix of hits
    and misses the cache serves; with no cache it *is* ``synthesize``
    plus progress events and cancellation.  ``on_event`` receives the
    traversal's progress stream — ``edge_started`` / ``edge_solved`` for
    misses plus ``edge_cached`` for splices, each carrying
    ``cache_hits`` / ``cache_misses`` counters so far.  The returned
    result's :attr:`~repro.spec.api.SynthesisResult.steps` holds solver
    internals for *solved* edges only; cached edges appear in ``edges``
    with ``cache_hit=True`` and their original timings.

    Aborts (failures *and* cancellations) clean up any spill
    directories this run created under the spec's ``storage_dir``; the
    cache's per-edge checkpoints are unaffected.
    """
    spec.validate()
    with spill_guard(spec):
        database = spec.to_database()
        fingerprints = (
            {} if cache is None else edge_fingerprints(spec, database)
        )
        constraints = edge_constraint_map(spec)
        hooks = _CacheHooks(
            spec,
            constraints,
            cache,
            fingerprints,
            total_edges=len(database.foreign_keys),
            on_event=on_event,
            should_cancel=should_cancel,
        )
        flake = SnowflakeSynthesizer(spec.options).solve(
            database, spec.fact(), constraints, hooks=hooks
        )
    return synthesis_result(spec, constraints, flake)


@dataclass
class _CacheHooks(EdgeHooks):
    """Edge-cache reads and writes, progress events and cancellation."""

    spec: SynthesisSpec
    constraints: Mapping[Tuple[str, str], EdgeConstraints]
    cache: Optional[EdgeCache]
    fingerprints: Mapping[Tuple[str, str], str]
    total_edges: int
    on_event: Optional[Callable[[Dict[str, object]], None]]
    should_cancel: Optional[Callable[[], bool]]
    hits: int = 0
    misses: int = 0

    def _emit(self, kind: str, fk: ForeignKey, **extra: object) -> None:
        if self.on_event is None:
            return
        event: Dict[str, object] = {
            "type": kind,
            "edge": f"{fk.child}.{fk.column} -> {fk.parent}",
            "child": fk.child,
            "column": fk.column,
            "parent": fk.parent,
            "total_edges": self.total_edges,
            "cache_hits": self.hits,
            "cache_misses": self.misses,
        }
        event.update(extra)
        self.on_event(event)

    def _check_cancel(self) -> None:
        if self.should_cancel is not None and self.should_cancel():
            raise SynthesisCancelled(
                f"synthesis of {self.spec.name or 'spec'!r} cancelled "
                f"after {self.hits + self.misses}/{self.total_edges} edges"
            )

    def lookup(self, fk: ForeignKey) -> Optional[CachedEdge]:
        self._check_cancel()
        if self.cache is None:
            return None
        return self.cache.get(self.fingerprints[(fk.child, fk.column)])

    def spliced(self, fk: ForeignKey, hit: CachedEdge) -> None:
        self.hits += 1
        report = EdgeReport.from_payload(hit.report, cache_hit=True)
        self._emit(
            "edge_cached",
            fk,
            index=self.hits + self.misses,
            wall_s=report.wall_seconds,
            solve_s=report.total_seconds,
        )

    def started(self, fk: ForeignKey) -> None:
        self._check_cancel()
        self._emit("edge_started", fk)

    def solved(self, fk: ForeignKey, step: CExtensionResult) -> None:
        self.misses += 1
        if self.cache is not None:
            key = (fk.child, fk.column)
            report = edge_report(
                fk, step, self.constraints.get(key, EdgeConstraints())
            )
            self.cache.put(
                self.fingerprints[key],
                step.r1_hat.schema.spec(fk.column),
                step.r1_hat.column(fk.column),
                step.r2_hat,
                report.as_payload(),
            )
        self._emit(
            "edge_solved",
            fk,
            index=self.hits + self.misses,
            wall_s=step.report.wall_seconds,
            solve_s=step.report.total_seconds,
            new_parent_tuples=step.phase2.stats.num_new_r2_tuples,
        )
