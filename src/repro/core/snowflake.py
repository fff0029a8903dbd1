"""Snowflake-schema extension (Section 5.2, "Extending the solution…").

The paper generalises C-Extension to snowflake schemas by walking the FK
graph breadth-first from the fact table, treating the join of everything
completed so far as ``R1`` and the next dimension as ``R2`` (Example 5.6).

Our implementation follows that traversal with one precision: the relation
whose FK column is imputed at each step is the *owner* of the FK (the fact
table for fact→dim edges, a dimension for dim→dim edges), extended — for
constraint evaluation — with every attribute reachable through its
already-completed FKs.  For fact-table edges this is exactly the paper's
accumulated join (one view row per fact row); for dimension edges it keeps
the FK functionally dependent on the dimension key, which a row-level join
completion could violate.  DESIGN.md discusses the substitution.

The traversal is *transactional*: :meth:`SnowflakeSynthesizer.solve`
works on a copy of the input :class:`Database` and returns it in
:attr:`SnowflakeResult.database` — a mid-traversal solver failure leaves
the caller's database exactly as it was.  It is also (optionally)
*parallel*: edges in one BFS layer whose read/write relation sets are
disjoint (``Database.conflict_free_batches``) are solved concurrently on
a process pool, with results merged back in BFS order so the completed
database is byte-identical to the sequential traversal's.

It is the only traversal in the library.  :func:`repro.spec.synthesize`
runs it as is; the service's :func:`repro.service.engine.run_spec` runs
it with :class:`EdgeHooks` that splice cached edges instead of solving
them and checkpoint each solved edge as it is committed.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.dc import DenialConstraint
from repro.core.config import SolverConfig
from repro.core.parallel_snowflake import solve_edge, solve_edge_args
from repro.core.synthesizer import CExtensionResult
from repro.errors import SchemaError
from repro.phase2.strategies import resolve_strategy
from repro.relational import join
from repro.relational.database import Database, ForeignKey
from repro.relational.relation import Relation

__all__ = [
    "EdgeConstraints",
    "EdgeHooks",
    "SnowflakeResult",
    "SnowflakeSynthesizer",
]


@dataclass
class EdgeConstraints:
    """The CC/DC sets (and Phase-II strategy) attached to one FK edge.

    ``capacity`` caps how many child rows may share one parent key; when
    set, the edge is solved with the ``"capacity"`` Phase-II strategy.
    ``strategy`` names a strategy explicitly and overrides the
    capacity-implied default; ``options`` carries extra strategy knobs
    (see :mod:`repro.phase2.strategies`).  ``solver_overrides`` shadows
    individual :class:`SolverConfig` fields (time_limit, mip_gap,
    marginals, …) for this edge only.  ``serialize`` opts the edge out of
    batch scheduling: it is always solved alone, in-process, even when it
    would be conflict-free with its layer mates.
    """

    ccs: Sequence[CardinalityConstraint] = ()
    dcs: Sequence[DenialConstraint] = ()
    capacity: Optional[int] = None
    strategy: Optional[str] = None
    options: Mapping[str, object] = field(default_factory=dict)
    solver_overrides: Mapping[str, object] = field(default_factory=dict)
    serialize: bool = False

    def resolved_strategy(self) -> Tuple[str, Dict[str, object]]:
        """The ``(strategy, options)`` pair this edge solves with."""
        return resolve_strategy(self.strategy, self.capacity, self.options)

    def effective_config(self, base: SolverConfig) -> SolverConfig:
        """``base`` with this edge's solver overrides applied."""
        if not self.solver_overrides:
            return base
        return replace(base, **dict(self.solver_overrides))


@dataclass
class SnowflakeResult:
    """The completed database plus the per-edge solver results."""

    database: Database
    steps: List[Tuple[ForeignKey, CExtensionResult]] = field(
        default_factory=list
    )
    #: Edges committed from an :meth:`EdgeHooks.lookup` hit instead of
    #: solved, each with its hit, in traversal order.
    spliced: List[Tuple[ForeignKey, Any]] = field(default_factory=list)


class EdgeHooks:
    """The traversal's per-edge seam; every method here does nothing.

    For each conflict-free batch, :meth:`SnowflakeSynthesizer.solve`
    first asks :meth:`lookup` about every edge.  A hit is an edge result
    given as its raw parts — an object with ``fk_spec``, ``fk_values``
    and ``parent`` attributes, such as the service's
    :class:`~repro.service.cache.CachedEdge` — and is committed with
    :meth:`SnowflakeSynthesizer.commit_edge`, then passed to
    :meth:`spliced`.  The rest are solved: :meth:`started` runs before
    each solve is started and :meth:`solved` after its result is
    committed, as each result lands.
    """

    def lookup(self, fk: ForeignKey) -> Any:
        """A precomputed result for ``fk``, or ``None`` to solve it."""
        return None

    def spliced(self, fk: ForeignKey, hit: Any) -> None:
        """``fk`` was committed from :meth:`lookup`'s ``hit``."""

    def started(self, fk: ForeignKey) -> None:
        """``fk``'s solve is about to start."""

    def solved(self, fk: ForeignKey, step: CExtensionResult) -> None:
        """``fk`` was solved as ``step`` and committed."""


class SnowflakeSynthesizer:
    """Complete every FK column of a snowflake database."""

    def __init__(self, config: Optional[SolverConfig] = None) -> None:
        self.config = config or SolverConfig()

    def _extended_view(
        self,
        database: Database,
        name: str,
        completed: Set[Tuple[str, str]],
    ) -> Relation:
        """``name``'s relation joined with every completed FK target.

        Attributes of transitively completed dimensions are pulled in
        too, enabling CCs that span multiple joins (the paper's step-2
        example over ``Students ⋈ Majors ⋈ Courses``).  The traversal is
        depth-first (matching the order the old recursive formulation
        produced) but joins every reachable relation exactly once: on a
        diamond FK graph — two completed paths into one dimension — the
        shared dimension's attributes appear once instead of colliding,
        and ladders of diamonds stay linear instead of exploding
        exponentially with the number of re-walked paths.
        """
        view = database.relation(name)
        joined = {name}
        stack = [
            fk
            for fk in reversed(database.outgoing(name))
            if (fk.child, fk.column) in completed
        ]
        while stack:
            fk = stack.pop()
            if fk.parent in joined:
                # Second completed path into an already-joined dimension:
                # its attributes are in the view once already, so the
                # duplicate path keeps only its (imputed) FK column.
                continue
            view = join.fk_join(view, database.relation(fk.parent), fk.column)
            joined.add(fk.parent)
            stack.extend(
                out
                for out in reversed(database.outgoing(fk.parent))
                if (out.child, out.column) in completed
            )
        return view

    @staticmethod
    def commit_edge(
        database: Database,
        fk: ForeignKey,
        fk_spec,
        fk_values,
        r2_hat: Relation,
    ) -> None:
        """Commit an edge result given as its raw parts.

        This is the splice point the service layer's edge-result cache
        uses: a cached edge carries exactly ``(fk column spec, fk value
        array, completed parent relation)``, and committing those parts
        is byte-identical to committing the full solver result they came
        from.  The FK column overlays the child without copying its other
        columns, on either storage backend.
        """
        child = database.relation(fk.child)
        updated_child = child
        if fk.column in child.schema:
            updated_child = child.drop_column(fk.column)
        updated_child = updated_child.with_column(fk_spec, fk_values)
        database.replace_relation(fk.child, updated_child)
        current_parent = database.relation(fk.parent)
        if (
            r2_hat.is_chunked
            and current_parent.is_chunked
            and r2_hat.store.directory == current_parent.store.directory
        ):
            # An unchanged disk-backed parent round-trips through a pool
            # worker as a fresh handle on the *same* store directory —
            # a handle that does not own the backing TemporaryDirectory.
            # Keep the database's own relation object instead, so the
            # store outlives the input database that created it.
            r2_hat = current_parent
        database.replace_relation(fk.parent, r2_hat)

    def solve(
        self,
        database: Database,
        fact_table: str,
        constraints: Mapping[Tuple[str, str], EdgeConstraints],
        *,
        allow_unreachable: bool = False,
        hooks: Optional[EdgeHooks] = None,
    ) -> SnowflakeResult:
        """Impute every declared FK, BFS outward from ``fact_table``.

        ``constraints`` maps ``(child, column)`` to that edge's CC/DC
        sets; missing entries mean "no constraints" for the edge.  The
        input ``database`` is never modified: the traversal runs on a
        copy, returned in :attr:`SnowflakeResult.database`, so a failing
        edge leaves the caller's state untouched.

        ``config.workers`` sizes the process pool used to solve
        conflict-free edges of one BFS layer concurrently; ``0``/``1``
        keeps the traversal fully in-process.  Parallel runs are
        byte-identical to sequential ones.  Declared FK edges the BFS
        cannot reach would silently never be solved, so they raise
        :class:`SchemaError` unless ``allow_unreachable=True`` opts into
        an intentionally partial run.

        ``hooks`` (default: :class:`EdgeHooks`, which does nothing) is
        consulted per edge; exceptions it raises abort the traversal.
        """
        layers = database.bfs_edge_layers(fact_table)
        reachable = {
            (fk.child, fk.column) for layer in layers for fk in layer
        }
        declared = {
            (fk.child, fk.column) for fk in database.foreign_keys
        }
        # Constraints on a *declared* edge are always legitimate — on an
        # unreachable one they simply go unused in a partial run.
        unknown = set(constraints) - declared
        if unknown:
            raise SchemaError(
                f"constraints reference unknown FK edges {sorted(unknown)}"
            )
        unreached = sorted(declared - reachable)
        if unreached and not allow_unreachable:
            raise SchemaError(
                f"FK edges {unreached} are unreachable from fact table "
                f"{fact_table!r} and would never be imputed; fix the FK "
                "graph (or pass allow_unreachable=True for an "
                "intentionally partial run)"
            )

        if hooks is None:
            hooks = EdgeHooks()
        workers = self.config.workers
        serialized = {
            key for key, ec in constraints.items() if ec.serialize
        }
        work = database.copy()
        result = SnowflakeResult(database=work)
        completed: Set[Tuple[str, str]] = set()

        def edge_inputs(fk: ForeignKey) -> tuple:
            """``solve_edge``'s arguments for ``fk`` against ``work``."""
            return (
                self._extended_view(work, fk.child, completed),
                work.relation(fk.parent),
                fk.column,
                constraints.get((fk.child, fk.column), EdgeConstraints()),
                self.config,
            )

        def commit(fk: ForeignKey, step: CExtensionResult) -> None:
            self.commit_edge(
                work,
                fk,
                step.r1_hat.schema.spec(fk.column),
                step.r1_hat.column(fk.column),
                step.r2_hat,
            )
            completed.add((fk.child, fk.column))
            result.steps.append((fk, step))
            hooks.solved(fk, step)

        pool: Optional[ProcessPoolExecutor] = None
        try:
            for layer in layers:
                for batch in work.conflict_free_batches(
                    layer, completed, serialize=serialized
                ):
                    # Hits may be committed before their batch mates
                    # solve: no edge of a conflict-free batch reads or
                    # writes another member's relations.
                    misses = []
                    for fk in batch:
                        hit = hooks.lookup(fk)
                        if hit is None:
                            misses.append(fk)
                            continue
                        self.commit_edge(
                            work, fk, hit.fk_spec, hit.fk_values, hit.parent
                        )
                        completed.add((fk.child, fk.column))
                        result.spliced.append((fk, hit))
                        hooks.spliced(fk, hit)
                    if len(misses) < 2 or workers < 2:
                        # In-process: solve edge by edge, committing each
                        # before building the next extended view (edges
                        # in one batch never read each other's writes, so
                        # this matches the snapshot semantics below).
                        for fk in misses:
                            hooks.started(fk)
                            commit(fk, solve_edge(*edge_inputs(fk)))
                        continue
                    # Fan out: every edge solves against the batch-start
                    # snapshot.  Results land in BFS order and each is
                    # committed as it lands, so an edge that fails keeps
                    # the batch mates ahead of it.
                    if pool is None:
                        pool = ProcessPoolExecutor(max_workers=workers)
                    inputs = []
                    for fk in misses:
                        hooks.started(fk)
                        inputs.append(edge_inputs(fk))
                    for fk, step in zip(
                        misses, pool.map(solve_edge_args, inputs)
                    ):
                        commit(fk, step)
        finally:
            if pool is not None:
                pool.shutdown()
        return result
