"""Outside-in tracing: timing wrappers around each layer's public calls.

Nothing inside ``src/repro`` is instrumented.  :func:`traced` replaces,
for the span of a ``with`` block, the attribute every caller looks up
(the same technique ``repro.fuzz.faults`` uses for ``solve_edge``) with a
wrapper that records a span — name, start, end, parent — and, where the
call returns a stats object, the counts it carries.  A target that is
missing or renamed raises :class:`MissingTarget` before anything runs,
so a refactor can never silently drop a layer from the trace.

:func:`layer_metrics` folds the spans of one traced run into the
per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import gc
import importlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np


class MissingTarget(RuntimeError):
    """A wrapper target no longer exists where the trace expects it."""


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    #: ``setup``, ``synth`` or ``resynth`` — which timed unit the span
    #: belongs to; set on root spans and inherited by their children.
    part: str = ""
    #: The op a root span belongs to (``None`` for set-up samples).
    op: Optional[int] = None
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        #: The op now running; root spans opened during it carry it.
        self.op: Optional[int] = None
        #: GC pause seconds and collection counts, keyed by the part of
        #: the span that was open when the collection ran.
        self.gc_seconds: Dict[str, float] = {}
        self.gc_collections: Dict[str, int] = {}
        self._gc_started: Optional[float] = None

    @contextmanager
    def span(self, name: str, part: str = "") -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        op = self.op if part != "setup" else None
        if parent is not None:
            part, op = self.spans[parent].part, self.spans[parent].op
        record = Span(name, time.perf_counter(), parent=parent, part=part,
                      op=op)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            part = self.spans[self._stack[-1]].part if self._stack else ""
            self.gc_seconds[part] = (
                self.gc_seconds.get(part, 0.0)
                + time.perf_counter() - self._gc_started
            )
            self.gc_collections[part] = self.gc_collections.get(part, 0) + 1
            self._gc_started = None

    def to_json(self) -> List[Dict[str, object]]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "part": s.part,
                "op": s.op,
                "counts": s.counts,
            }
            for s in self.spans
        ]


# ---------------------------------------------------------------------------
# Count extraction from the objects the wrapped calls return
# ---------------------------------------------------------------------------


def _phase1_counts(span: Span, args, kwargs, result) -> None:
    stats = result.stats
    span.counts.update(
        ccs_alg2=stats.num_s1,
        ccs_ilp=stats.num_s2,
        invalid_rows=stats.invalid_rows,
    )


def _ilp_counts(span: Span, args, kwargs, result) -> None:
    span.counts.update(
        ilp_vars=result.num_variables,
        ilp_rows=result.num_bin_rows + result.num_cc_rows,
        ilp_solves=0 if result.solver_status == "skipped" else 1,
        nonoptimal=int(result.solver_status not in ("optimal", "skipped")),
    )


def _phase2_counts(span: Span, args, kwargs, result) -> None:
    stats = result.stats
    span.counts.update(
        conflict_edges=stats.num_edges,
        partitions=stats.num_partitions,
        skipped=stats.num_skipped,
        fresh_keys=stats.num_new_r2_tuples,
    )


def _dc_pairs(span: Span, args, kwargs, result) -> None:
    """Ordered child pairs inside each FK group — the work any exact DC
    check must cover — counted from the call's own arguments."""
    r1_hat, fk_column = args[0], args[1]
    dcs = args[2] if len(args) > 2 else kwargs.get("dcs", ())
    if not dcs:
        return
    _, sizes = np.unique(np.asarray(r1_hat.column(fk_column)),
                         return_counts=True)
    span.counts["dc_pairs"] = float((sizes * (sizes - 1)).sum())


def _csv_bytes(span: Span, args, kwargs, result) -> None:
    span.counts["csv_bytes"] = float(os.path.getsize(args[0]))


# ---------------------------------------------------------------------------
# Wrapper targets
# ---------------------------------------------------------------------------

#: ``(module, owner, attribute, span name, count hook)``.  ``owner`` is a
#: class name inside ``module`` or ``None`` for a module-level function.
#: Every site a caller looks the name up from is listed, so nested calls
#: (inference inside ``read_csv_infer``, binning inside the ILP leg, the
#: capacity strategy's own partitioning) land in the trace too.
TARGETS: Sequence[Tuple[str, Optional[str], str, str, Optional[Callable]]] = (
    ("repro.spec.model", None, "infer_csv_schema", "relational.csv_infer",
     None),
    ("repro.relational.csvio", None, "infer_csv_schema",
     "relational.csv_infer", None),
    ("repro.spec.model", None, "read_csv_store", "relational.csv_read",
     _csv_bytes),
    ("repro.spec.model", None, "read_csv_infer", "relational.csv_read",
     _csv_bytes),
    ("repro.spec.model", "SynthesisSpec", "to_database", "spec.build", None),
    ("repro.service.engine", None, "edge_fingerprints", "spec.fingerprint",
     None),
    ("repro.core.synthesizer", None, "run_phase1", "phase1.run",
     _phase1_counts),
    ("repro.phase1.hybrid", "RelationshipTable", "build",
     "constraints.pairwise", None),
    ("repro.phase1.hybrid", None, "build_binning", "constraints.binning",
     None),
    ("repro.phase1.ilp_completion", None, "build_binning",
     "constraints.binning", None),
    ("repro.phase1.hybrid", None, "complete_with_hasse", "phase1.hasse",
     None),
    ("repro.phase1.hybrid", None, "complete_with_ilp", "phase1.ilp",
     _ilp_counts),
    ("repro.phase1.ilp_completion", None, "solve_model", "solver.solve",
     None),
    ("repro.phase2.fk_assignment", None, "partition_by_combo",
     "phase2.partition", None),
    ("repro.extensions.capacity", None, "partition_by_combo",
     "phase2.partition", None),
    ("repro.phase2.fk_assignment", None, "build_conflict_graph",
     "phase2.conflict_graph", None),
    ("repro.extensions.capacity", None, "build_conflict_graph",
     "phase2.conflict_graph", None),
    ("repro.phase2.fk_assignment", None, "coloring_lf", "phase2.coloring",
     None),
    ("repro.phase2.fk_assignment", None, "solve_invalid_tuples",
     "phase2.invalid", None),
    ("repro.core.synthesizer", None, "evaluate", "core.evaluate", None),
    ("repro.core.metrics", None, "cc_errors", "core.cc_errors", None),
    ("repro.core.metrics", None, "dc_error", "core.dc_error", _dc_pairs),
    ("repro.relational.join", None, "fk_join", "relational.fk_join", None),
    ("repro.core.snowflake", "SnowflakeSynthesizer", "commit_edge",
     "core.commit", None),
    ("repro.service.cache", "EdgeCache", "get", "service.cache_get", None),
    ("repro.service.cache", "EdgeCache", "put", "service.cache_put", None),
)

#: The Phase-II strategy is looked up by name at solve time, so the
#: wrapper sits on the lookup and times whatever callable it returns.
STRATEGY_LOOKUP = ("repro.core.synthesizer", "phase2_strategy")


def _timed(recorder: Recorder, name: str, fn: Callable,
           hook: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as span:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(span, args, kwargs, result)
        return result

    return wrapper


def _resolve(module_name: str, owner_name: Optional[str], attribute: str):
    """``(owner object, raw attribute)`` or :class:`MissingTarget`."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise MissingTarget(f"cannot import {module_name}: {exc}") from None
    label = ".".join(filter(None, (module_name, owner_name, attribute)))
    if owner_name is not None:
        owner = vars(owner).get(owner_name)
        if not isinstance(owner, type):
            raise MissingTarget(f"trace target {label} is missing")
    raw = vars(owner).get(attribute)
    if raw is None:
        raise MissingTarget(f"trace target {label} is missing")
    return owner, raw


def check_targets() -> None:
    """Raise :class:`MissingTarget` unless every wrapper target exists."""
    for module_name, owner_name, attribute, _, _ in TARGETS:
        _resolve(module_name, owner_name, attribute)
    _resolve(STRATEGY_LOOKUP[0], None, STRATEGY_LOOKUP[1])


@contextmanager
def traced(recorder: Recorder) -> Iterator[None]:
    """Install every wrapper (and the GC timer) for the ``with`` block."""
    patches: List[Tuple[object, str, object]] = []
    for module_name, owner_name, attribute, name, hook in TARGETS:
        owner, raw = _resolve(module_name, owner_name, attribute)
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(
                _timed(recorder, name, raw.__func__, hook))
        elif isinstance(raw, classmethod):
            wrapped = classmethod(
                _timed(recorder, name, raw.__func__, hook))
        else:
            wrapped = _timed(recorder, name, raw, hook)
        patches.append((owner, attribute, raw))
        setattr(owner, attribute, wrapped)
    owner, lookup = _resolve(STRATEGY_LOOKUP[0], None, STRATEGY_LOOKUP[1])

    def strategy_lookup(name: str):
        return _timed(recorder, "phase2.run", lookup(name), _phase2_counts)

    patches.append((owner, STRATEGY_LOOKUP[1], lookup))
    setattr(owner, STRATEGY_LOOKUP[1], strategy_lookup)
    gc.callbacks.append(recorder._on_gc)
    try:
        yield
    finally:
        gc.callbacks.remove(recorder._on_gc)
        for owner, attribute, raw in reversed(patches):
            setattr(owner, attribute, raw)


# ---------------------------------------------------------------------------
# Spans → per-layer metrics
# ---------------------------------------------------------------------------

def _children(spans: Sequence[Span]) -> Dict[int, List[int]]:
    out: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            out.setdefault(span.parent, []).append(index)
    return out


def self_seconds(spans: Sequence[Span], children, index: int) -> float:
    """A span's duration minus the time its direct children cover
    (children of one span never overlap: the process is sequential)."""
    span = spans[index]
    return span.seconds - sum(
        spans[c].seconds for c in children.get(index, ()))


def coverage(spans: Sequence[Span]) -> List[float]:
    """Per op (its synthesis plus re-synthesis samples) and per set-up
    sample: the share of its wall time the top-level layer calls — the
    direct children of its root spans — account for."""
    children = _children(spans)
    wall: Dict[object, float] = {}
    covered: Dict[object, float] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            continue
        unit = ("op", span.op) if span.op is not None else ("setup", index)
        wall[unit] = wall.get(unit, 0.0) + span.seconds
        covered[unit] = covered.get(unit, 0.0) + sum(
            spans[c].seconds for c in children.get(index, ()))
    return [covered[u] / wall[u] for u in wall if wall[u] > 0]


def layer_metrics(
    recorder: Recorder,
    units: Dict[str, float],
    extra_counts: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer seconds and counts per benchmark *cycle*.

    A cycle is one set-up, one synthesis and one re-synthesis: each
    span's contribution is divided by the number of units of its part
    (``units[part]``), so a metric reads "seconds of this layer in one
    set-up + synth + resynth", comparable with ``trace.cycle_s``.
    ``extra_counts`` carries per-cycle counts the benchmark measured
    itself (cache statistics).  Byte counts are per read, so a file the
    mmap path scans twice (inference, then the store) counts once.
    """
    spans = recorder.spans
    children = _children(spans)
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for index, span in enumerate(spans):
        share = units.get(span.part, 0.0)
        if not share:
            continue
        weight = 1.0 / share
        total[span.name] = total.get(span.name, 0.0) + span.seconds * weight
        own[span.name] = (
            own.get(span.name, 0.0)
            + self_seconds(spans, children, index) * weight
        )
        for key, value in span.counts.items():
            counts[key] = counts.get(key, 0.0) + value * weight
        if span.name == "relational.fk_join":
            counts["fk_join_calls"] = counts.get("fk_join_calls", 0.0) + weight

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    # The harness opens one root span per timed sample, ``op.<part>``;
    # what the front door does outside every layer call is traversal.
    traverse = own.get("op.synth", 0.0) + own.get("op.resynth", 0.0)
    csv_infer = t("relational.csv_infer")
    csv_read = own.get("relational.csv_read", 0.0)
    csv_bytes = counts.get("csv_bytes", 0.0)
    hits = extra_counts.get("cache_hits", 0.0)
    misses = extra_counts.get("cache_misses", 0.0)
    out = {
        "spec.load_s": t("spec.load"),
        "spec.build_s": t("spec.build"),
        "spec.fingerprint_s": t("spec.fingerprint"),
        "relational.csv_infer_s": csv_infer,
        "relational.csv_read_s": csv_read,
        "relational.csv_bytes": csv_bytes,
        "relational.csv_mb_per_s": rate(csv_bytes / 1e6, csv_infer + csv_read),
        "relational.fk_join_s": t("relational.fk_join"),
        "relational.fk_join_calls": counts.get("fk_join_calls", 0.0),
        "constraints.pairwise_s": t("constraints.pairwise"),
        "constraints.binning_s": t("constraints.binning"),
        "phase1.total_s": t("phase1.run"),
        "phase1.self_s": own.get("phase1.run", 0.0),
        "phase1.hasse_s": t("phase1.hasse"),
        "phase1.ilp_s": t("phase1.ilp"),
        "phase1.ccs_alg2": counts.get("ccs_alg2", 0.0),
        "phase1.ccs_ilp": counts.get("ccs_ilp", 0.0),
        "phase1.invalid_rows": counts.get("invalid_rows", 0.0),
        "solver.solve_s": t("solver.solve"),
        "solver.ilp_vars": counts.get("ilp_vars", 0.0),
        "solver.ilp_rows": counts.get("ilp_rows", 0.0),
        "solver.status": counts.get("nonoptimal", 0.0),
        "phase2.total_s": t("phase2.run"),
        "phase2.partition_s": t("phase2.partition"),
        "phase2.conflict_graph_s": t("phase2.conflict_graph"),
        "phase2.coloring_s": t("phase2.coloring"),
        "phase2.invalid_s": t("phase2.invalid"),
        "phase2.self_s": own.get("phase2.run", 0.0),
        "phase2.conflict_edges": counts.get("conflict_edges", 0.0),
        "phase2.partitions": counts.get("partitions", 0.0),
        "phase2.skipped": counts.get("skipped", 0.0),
        "phase2.fresh_keys": counts.get("fresh_keys", 0.0),
        "phase2.conflict_edges_per_s": rate(
            counts.get("conflict_edges", 0.0), t("phase2.conflict_graph")
        ),
        "core.traverse_s": traverse,
        "core.evaluate_s": t("core.evaluate"),
        "core.dc_error_s": t("core.dc_error"),
        "core.cc_errors_s": t("core.cc_errors"),
        "core.commit_s": t("core.commit"),
        "core.dc_pairs": counts.get("dc_pairs", 0.0),
        "core.dc_pairs_per_s": rate(
            counts.get("dc_pairs", 0.0), t("core.dc_error")
        ),
        "service.cache_get_s": t("service.cache_get"),
        "service.cache_put_s": t("service.cache_put"),
        "service.cache_hits": hits,
        "service.cache_misses": misses,
        "service.cache_stores": extra_counts.get("cache_stores", 0.0),
        "service.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.cache_bytes": extra_counts.get("cache_bytes", 0.0),
        "python.gc_s": sum(
            seconds / units[part]
            for part, seconds in recorder.gc_seconds.items()
            if units.get(part)
        ),
        "python.gc_collections": sum(
            count / units[part]
            for part, count in recorder.gc_collections.items()
            if units.get(part)
        ),
    }
    return out
