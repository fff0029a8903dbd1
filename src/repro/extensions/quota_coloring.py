"""Quota coloring: per-combo caps on children absorbed per parent key.

The hard ``"capacity"`` strategy caps every key globally.  Quota coloring
refines that: the cap is declared *per B-combo* — e.g. "a household whose
``Tenure`` is ``'Rented'`` hosts at most 2 persons, any other household
is unlimited".  Each combo partition (the Section 5.2 partitioning,
computed by the columnar ``group_by_combo`` kernel) is colored with its
own per-key quota; partitions without a quota run the paper's plain
Algorithm 3/4, so a quota-free edge is output-identical to the
``"coloring"`` strategy.

Options:

* ``quotas`` — a list of ``{match: {attr: value, ...}, quota: int}``
  entries; a combo uses the first entry whose ``match`` values all equal
  the combo's values (an empty ``match`` matches every combo);
* ``default_quota`` — the quota for combos no entry matches
  (``None``/omitted = unlimited).

In TOML::

    [[edges]]
    child = "persons"
    column = "hid"
    parent = "housing"
    strategy = "quota_coloring"

    [edges.options]
    default_quota = 6

    [[edges.options.quotas]]
    quota = 2
    [edges.options.quotas.match]
    Tenure = "Rented"
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.constraints.cc import CardinalityConstraint
from repro.constraints.dc import DenialConstraint
from repro.core.config import SolverConfig
from repro.core.stages import register_phase2_strategy
from repro.errors import ColoringError, ReproError
from repro.extensions.capacity import capacity_coloring
from repro.phase1.assignment import ViewAssignment
from repro.phase1.combos import ComboCatalog
from repro.phase2.coloring import coloring_lf
from repro.phase2.edges import build_conflict_graph
from repro.phase2.fk_assignment import (
    FreshKeyFactory,
    MintPool,
    Phase2Result,
    Phase2Stats,
    assign_invalid_fresh,
    color_skipped_with_fresh,
    new_key_recorder,
    partition_by_combo,
)
from repro.phase2.invalid import solve_invalid_tuples
from repro.relational.ordering import sort_key, tuple_sort_key
from repro.relational.relation import Relation
from repro.relational.schema import ColumnSpec

__all__ = ["resolve_quota", "quota_coloring_phase2"]


def _validated_quotas(
    options: Mapping[str, object],
) -> Tuple[List[Tuple[Dict[str, object], int]], Optional[int]]:
    """Parse and validate the ``quotas``/``default_quota`` options."""
    entries = options.get("quotas", [])
    if not isinstance(entries, (list, tuple)):
        raise ReproError(
            "quota_coloring 'quotas' must be a list of "
            "{match, quota} entries"
        )
    quotas: List[Tuple[Dict[str, object], int]] = []
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
        quota = entry.get("quota")
        if not isinstance(quota, int) or isinstance(quota, bool) or quota < 1:
            raise ReproError(
                f"quota entry {entry!r} needs an integer quota >= 1"
            )
        match = entry.get("match", {})
        if not isinstance(match, Mapping):
            raise ReproError(
                f"quota entry match {match!r} must map attributes to values"
            )
        quotas.append((dict(match), quota))
    default = options.get("default_quota")
    if default is not None and (
        not isinstance(default, int)
        or isinstance(default, bool)
        or default < 1
    ):
        raise ReproError("quota_coloring 'default_quota' must be >= 1")
    return quotas, default


def resolve_quota(
    combo_values: Mapping[str, object],
    quotas: Sequence[Tuple[Mapping[str, object], int]],
    default_quota: Optional[int],
) -> Optional[int]:
    """The quota for one combo: first matching entry, else the default."""
    for match, quota in quotas:
        if all(combo_values.get(a) == v for a, v in match.items()):
            return quota
    return default_quota


@register_phase2_strategy("quota_coloring")
def quota_coloring_phase2(
    r1: Relation,
    r2: Relation,
    dcs: Sequence[DenialConstraint],
    assignment: ViewAssignment,
    catalog: ComboCatalog,
    fk_column: str,
    *,
    ccs: Sequence[CardinalityConstraint] = (),
    config: Optional[SolverConfig] = None,
    options: Optional[Mapping[str, object]] = None,
) -> Phase2Result:
    """The ``"quota_coloring"`` Phase-II strategy.

    Partitions are always colored per combo (quotas are per-combo
    state, so the ``partitioned_coloring`` ablation knob does not
    apply).  With no quotas configured at all the output is identical
    to the ``"coloring"`` strategy, invalid-tuple handling included;
    with quotas, invalid tuples take the conservative fresh-key escape
    hatch (one key per row, which can never breach a quota).
    """
    options = dict(options or {})
    quotas, default_quota = _validated_quotas(options)
    unknown = set(options) - {"quotas", "default_quota"}
    if unknown:
        raise ReproError(
            f"unknown quota_coloring strategy options {sorted(unknown)}"
        )
    # A typo'd match attribute would silently match nothing and disable
    # the quota — fail loudly against R2's actual combo attributes.
    known_attrs = set(catalog.attrs)
    for match, _ in quotas:
        bad = set(match) - known_attrs
        if bad:
            raise ReproError(
                f"quota match references unknown R2 attributes "
                f"{sorted(bad)} (known: {sorted(known_attrs)})"
            )
    unlimited = not quotas and default_quota is None

    stats = Phase2Stats()
    key_column = r2.schema.key
    factory = FreshKeyFactory(list(r2.column(key_column)))
    pool = MintPool(factory)
    keys_by_combo = {c: list(k) for c, k in catalog.keys_by_combo.items()}
    new_rows: List[tuple] = []
    coloring: Dict[int, object] = {}
    record_new_key = new_key_recorder(
        r2, catalog, keys_by_combo, new_rows, stats
    )

    partitions: Dict[tuple, List[int]] = partition_by_combo(assignment, r1)

    for combo in sorted(partitions.keys(), key=tuple_sort_key):
        rows = partitions[combo]
        started = time.perf_counter()
        graph = build_conflict_graph(r1, dcs, rows)
        stats.edge_seconds += time.perf_counter() - started
        stats.num_edges += graph.num_edges
        stats.num_partitions += 1

        candidates = sorted(keys_by_combo.get(combo, []), key=sort_key)
        if not candidates:
            raise ColoringError(
                f"no candidate keys for combo {combo!r}; Phase I "
                "assigned a combination absent from R2"
            )
        quota = resolve_quota(catalog.as_dict(combo), quotas, default_quota)
        started = time.perf_counter()
        if quota is None:
            # Unlimited partition: the paper's plain Algorithm 3/4 pass.
            part_coloring, skipped = coloring_lf(graph, {}, candidates)
            stats.num_skipped += len(skipped)
            part_coloring = color_skipped_with_fresh(
                len(rows),
                part_coloring,
                skipped,
                pool,
                combo,
                record_new_key,
                lambda fresh, col, graph=graph: coloring_lf(graph, col, fresh),
            )
        else:
            usage: Dict[object, int] = {}
            part_coloring, skipped = capacity_coloring(
                graph, candidates, quota, {}, usage
            )
            stats.num_skipped += len(skipped)
            part_coloring = color_skipped_with_fresh(
                len(rows), part_coloring, skipped, pool, combo,
                record_new_key,
                lambda fresh, col, graph=graph, quota=quota: (
                    capacity_coloring(graph, fresh, quota, col, usage)
                ),
                label="quota coloring",
            )
        stats.coloring_seconds += time.perf_counter() - started
        coloring.update(part_coloring)

    # ------------------------------------------------------------------
    # Invalid tuples.
    # ------------------------------------------------------------------
    started = time.perf_counter()
    if unlimited:
        if assignment.invalid:
            stats.num_invalid_handled = solve_invalid_tuples(
                r1=r1,
                dcs=dcs,
                ccs=ccs,
                assignment=assignment,
                catalog=catalog,
                coloring=coloring,
                keys_by_combo=keys_by_combo,
                factory=pool,
                record_new_key=record_new_key,
            )
    else:
        stats.num_invalid_handled = assign_invalid_fresh(
            r1, ccs, assignment, catalog, pool, coloring, record_new_key
        )
    stats.invalid_seconds = time.perf_counter() - started

    missing = [row for row in range(assignment.n) if row not in coloring]
    if missing:
        raise ColoringError(f"{len(missing)} rows ended up uncolored")
    fk_values = [coloring[row] for row in range(assignment.n)]
    key_dtype = r2.schema.dtype(key_column)
    r1_hat = r1.with_column(ColumnSpec(fk_column, key_dtype), fk_values)
    r2_hat = r2.append_rows(new_rows)
    return Phase2Result(
        r1_hat=r1_hat, r2_hat=r2_hat, coloring=coloring, stats=stats
    )
