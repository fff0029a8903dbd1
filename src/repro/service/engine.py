"""The cache-aware synthesis engine behind the job server.

:func:`run_spec` executes a :class:`SynthesisSpec` exactly like
:func:`repro.spec.synthesize` — same BFS layers, same conflict-free
batches, same process-pool fan-out, byte-identical output — but routes
every edge through an :class:`~repro.service.cache.EdgeCache` first:

1. fingerprint every edge statically
   (:func:`repro.spec.fingerprint.edge_fingerprints`);
2. a hit splices the cached ``(fk column, parent)`` pair straight into
   the working database (:meth:`SnowflakeSynthesizer.commit_edge`) and
   replays the cached report;
3. a miss solves normally and checkpoints the result into the cache
   before moving on — which is what makes a killed run resumable: the
   re-run hits every edge the first run completed.

Editing a spec therefore re-solves exactly the dirty read-closure: an
edge's fingerprint changes iff its config or any upstream input did.

Hits may be committed before their batch mates solve because batches
are conflict-free — no edge in a batch reads or writes another batch
member's relations, so splice order within a batch is immaterial.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.parallel_snowflake import edge_payload, solve_batch, solve_edge
from repro.core.snowflake import EdgeConstraints, SnowflakeSynthesizer
from repro.errors import ReproError, SchemaError
from repro.relational.database import ForeignKey
from repro.service.cache import EdgeCache
from repro.spec.api import (
    EdgeReport,
    SynthesisResult,
    edge_constraint_map,
    edge_report,
    spill_guard,
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
    solve_edge_fn: Optional[Callable] = None,
) -> SynthesisResult:
    """Synthesize ``spec``, splicing cached edges and caching new ones.

    Byte-identical to :func:`repro.spec.synthesize` whatever mix of hits
    and misses the cache serves.  ``on_event`` receives the traversal's
    progress stream — ``edge_started`` / ``edge_solved`` for misses plus
    ``edge_cached`` for splices, each carrying ``cache_hits`` /
    ``cache_misses`` counters so far.  The returned result's
    :attr:`~repro.spec.api.SynthesisResult.steps` holds solver internals
    for *solved* edges only; cached edges appear in ``edges`` with
    ``cache_hit=True`` and their original timings.

    ``solve_edge_fn`` swaps the per-edge solve (the crash-resume and
    fault-injection seam: the fuzz oracle substitutes a solver that
    fails on the Nth edge, then re-runs with the same cache to prove the
    checkpoints resume to identical output).  Passing it forces every
    edge in-process — injected behaviour would not survive the trip to a
    pool worker.

    Aborts (failures *and* cancellations) clean up any spill
    directories this run created under the spec's ``storage_dir``; the
    cache's per-edge checkpoints are unaffected.
    """
    spec.validate()
    with spill_guard(spec):
        return _run(
            spec,
            cache=cache,
            on_event=on_event,
            should_cancel=should_cancel,
            solve_edge_fn=solve_edge_fn,
        )


def _run(
    spec: SynthesisSpec,
    *,
    cache: Optional[EdgeCache],
    on_event: Optional[Callable[[Dict[str, object]], None]],
    should_cancel: Optional[Callable[[], bool]],
    solve_edge_fn: Optional[Callable] = None,
) -> SynthesisResult:
    database = spec.to_database()
    fingerprints = edge_fingerprints(spec, database)
    constraints = edge_constraint_map(spec)
    config = spec.options
    synthesizer = SnowflakeSynthesizer(config)
    serialized = {key for key, ec in constraints.items() if ec.serialize}

    layers = database.bfs_edge_layers(spec.fact())
    reachable = {
        (fk.child, fk.column) for layer in layers for fk in layer
    }
    unreached = sorted(
        (fk.child, fk.column)
        for fk in database.foreign_keys
        if (fk.child, fk.column) not in reachable
    )
    if unreached:
        raise SchemaError(
            f"FK edges {unreached} are unreachable from fact table "
            f"{spec.fact()!r} and would never be imputed; fix the FK graph"
        )
    total_edges = sum(len(layer) for layer in layers)
    hits = 0
    misses = 0
    done = 0

    def emit(kind: str, fk: ForeignKey, **extra: object) -> None:
        if on_event is None:
            return
        event: Dict[str, object] = {
            "type": kind,
            "edge": f"{fk.child}.{fk.column} -> {fk.parent}",
            "child": fk.child,
            "column": fk.column,
            "parent": fk.parent,
            "total_edges": total_edges,
            "cache_hits": hits,
            "cache_misses": misses,
        }
        event.update(extra)
        on_event(event)

    def check_cancel() -> None:
        if should_cancel is not None and should_cancel():
            raise SynthesisCancelled(
                f"synthesis of {spec.name or 'spec'!r} cancelled after "
                f"{done}/{total_edges} edges"
            )

    work = database.copy()
    result = SynthesisResult(spec=spec, database=work)
    reports: Dict[Tuple[str, str], EdgeReport] = {}
    completed: Set[Tuple[str, str]] = set()
    pool: Optional[ProcessPoolExecutor] = None

    def finish_miss(fk: ForeignKey, step) -> None:
        nonlocal misses, done
        key = (fk.child, fk.column)
        synthesizer._apply_step(work, fk, step)
        completed.add(key)
        misses += 1
        done += 1
        report = edge_report(fk, step, constraints.get(key, EdgeConstraints()))
        reports[key] = report
        result.steps.append((fk, step))
        if cache is not None:
            cache.put(
                fingerprints[key],
                step.r1_hat.schema.spec(fk.column),
                step.r1_hat.column(fk.column),
                step.r2_hat,
                report.as_payload(),
            )
        emit(
            "edge_solved",
            fk,
            index=done,
            wall_s=step.report.wall_seconds,
            solve_s=step.report.total_seconds,
            new_parent_tuples=step.phase2.stats.num_new_r2_tuples,
        )

    try:
        for layer in layers:
            for batch in work.conflict_free_batches(
                layer, completed, serialize=serialized
            ):
                to_solve: List[ForeignKey] = []
                for fk in batch:
                    check_cancel()
                    key = (fk.child, fk.column)
                    entry = (
                        cache.get(fingerprints[key])
                        if cache is not None
                        else None
                    )
                    if entry is None:
                        to_solve.append(fk)
                        continue
                    SnowflakeSynthesizer.commit_edge(
                        work, fk, entry.fk_spec, entry.fk_values, entry.parent
                    )
                    completed.add(key)
                    hits += 1
                    done += 1
                    report = EdgeReport.from_payload(
                        entry.report, cache_hit=True
                    )
                    reports[key] = report
                    emit(
                        "edge_cached",
                        fk,
                        index=done,
                        wall_s=report.wall_seconds,
                        solve_s=report.total_seconds,
                    )
                if not to_solve:
                    continue
                if (
                    len(to_solve) < 2
                    or config.workers < 2
                    or solve_edge_fn is not None
                ):
                    solve = (
                        solve_edge if solve_edge_fn is None else solve_edge_fn
                    )
                    for fk in to_solve:
                        check_cancel()
                        emit("edge_started", fk)
                        key = (fk.child, fk.column)
                        step = solve(
                            synthesizer._extended_view(
                                work, fk.child, completed
                            ),
                            work.relation(fk.parent),
                            fk.column,
                            constraints.get(key, EdgeConstraints()),
                            config,
                        )
                        finish_miss(fk, step)
                    continue
                if pool is None:
                    pool = ProcessPoolExecutor(max_workers=config.workers)
                payloads = []
                for fk in to_solve:
                    emit("edge_started", fk)
                    payloads.append(
                        edge_payload(
                            synthesizer._extended_view(
                                work, fk.child, completed
                            ),
                            work.relation(fk.parent),
                            fk.column,
                            constraints.get(
                                (fk.child, fk.column), EdgeConstraints()
                            ),
                            config,
                        )
                    )
                steps = solve_batch(payloads, pool)
                for fk, step in zip(to_solve, steps):
                    finish_miss(fk, step)
    finally:
        if pool is not None:
            pool.shutdown()

    # Reports in BFS solve order, hits and misses interleaved where the
    # traversal actually placed them.
    for layer in layers:
        for fk in layer:
            report = reports.get((fk.child, fk.column))
            if report is not None:
                result.edges.append(report)
    return result
