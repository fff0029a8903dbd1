"""Ablation — partitioned vs global conflict graphs (design choice #3).

The Section 5.2 optimization partitions ``V_join`` by B-combo, dropping
Figure 7's dashed cross-partition edges.  The global graph is correct
but strictly larger and slower; the partitioned run must dominate on
edges and both must stay DC-exact.

Phase II colors by partition only, so the global run is this module's
own: one conflict graph over every assigned row, colored largest-first
with each row's own combo keys as its candidate list.
"""

import time

import numpy as np

from benchmarks.conftest import ccs_for, dataset
from repro.bench import run_hybrid
from repro.core.metrics import dc_error
from repro.datagen import all_dcs
from repro.phase1.hybrid import run_phase1
from repro.phase2.edges import build_conflict_graph
from repro.relational.schema import ColumnSpec
from repro.relational.types import Dtype

SCALE = 1


def _global_coloring(data, ccs, dcs):
    """``(graph, combos, dc_error, seconds)`` of the unpartitioned
    Phase II; ``combos`` counts the combos the one graph spans.

    A row every candidate of its combo is forbidden for, and every
    invalid row, gets a fresh key of its own, which conflicts with
    nothing.
    """
    r1, r2 = data.persons_masked, data.housing
    phase1 = run_phase1(r1, r2, ccs)
    assignment, catalog = phase1.assignment, phase1.catalog
    started = time.perf_counter()
    rows = np.flatnonzero(assignment.assigned_mask())
    graph = build_conflict_graph(r1, dcs, rows)
    keys = {c: sorted(k) for c, k in catalog.keys_by_combo.items()}
    combo = [assignment.combo(row) for row in rows.tolist()]
    color = [-1] * len(rows)
    for i in graph.order(np.full(len(rows), -1)):
        forbidden = graph.forbidden(i, color)
        color[i] = next((k for k in keys[combo[i]] if k not in forbidden), -1)
    fk = np.full(len(r1), -1, dtype=np.int64)
    fk[rows] = color
    fresh = fk < 0
    fk[fresh] = r2.column("hid").max() + 1 + np.arange(fresh.sum())
    seconds = time.perf_counter() - started
    r1_hat = r1.with_column(ColumnSpec("hid", Dtype.INT), fk)
    return graph, len(set(combo)), dc_error(r1_hat, "hid", dcs), seconds


def test_ablation_partitioned_vs_global(benchmark):
    data = dataset(SCALE)
    ccs = ccs_for(SCALE, "good", num_ccs=60)
    dcs = all_dcs()

    partitioned = run_hybrid(data, ccs, dcs, scale="partitioned")
    graph, combos, global_dc_error, global_seconds = _global_coloring(
        data, ccs, dcs
    )

    print(
        f"\nAblation coloring (scale {SCALE}x):\n"
        f"  partitioned coloring {partitioned.coloring_seconds:.3f}s "
        f"({partitioned.conflict_edges} edges, "
        f"{partitioned.partitions} partitions)\n"
        f"  global      coloring {global_seconds:.3f}s "
        f"({graph.num_edges} edges)"
    )

    assert partitioned.dc_error == 0.0
    assert global_dc_error == 0.0
    # The global graph includes every cross-partition (dashed) edge, so
    # the partitioned run dominates on edges.  Edge counts are exact;
    # the timings above are only reported.
    assert combos == partitioned.partitions > 1  # one global partition
    assert graph.num_edges > partitioned.conflict_edges

    benchmark.pedantic(
        lambda: run_hybrid(data, ccs, dcs), rounds=1, iterations=1
    )
