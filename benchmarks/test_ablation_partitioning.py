"""Ablation — partitioned vs global conflict graphs (design choice #3).

The Section 5.2 optimization partitions ``V_join`` by B-combo, dropping
Figure 7's dashed cross-partition edges.  The global graph is correct
but strictly larger and slower; the partitioned run must dominate on
edges and both must stay DC-exact.
"""

from benchmarks.conftest import ccs_for, dataset
from repro.bench import run_hybrid
from repro.core.config import SolverConfig
from repro.datagen import all_dcs

SCALE = 1


def test_ablation_partitioned_vs_global(benchmark):
    data = dataset(SCALE)
    ccs = ccs_for(SCALE, "good", num_ccs=60)
    dcs = all_dcs()

    partitioned = run_hybrid(data, ccs, dcs, scale="partitioned")
    global_ = run_hybrid(
        data, ccs, dcs, scale="global",
        config=SolverConfig(partitioned_coloring=False),
    )

    print(
        f"\nAblation coloring (scale {SCALE}x):\n"
        f"  partitioned coloring {partitioned.coloring_seconds:.3f}s "
        f"({partitioned.conflict_edges} edges, "
        f"{partitioned.partitions} partitions)\n"
        f"  global      coloring {global_.coloring_seconds:.3f}s "
        f"({global_.conflict_edges} edges)"
    )

    assert partitioned.dc_error == 0.0
    assert global_.dc_error == 0.0
    # The global graph includes every cross-partition (dashed) edge, so
    # the partitioned run dominates on edges.  Edge counts are exact;
    # the timings above are only reported.
    assert global_.partitions == 1
    assert global_.conflict_edges > partitioned.conflict_edges

    benchmark.pedantic(
        lambda: run_hybrid(data, ccs, dcs), rounds=1, iterations=1
    )
