"""Figure 13 — hybrid stage breakdown for good vs bad CC sets.

Paper shape (900 CCs, scale 10×): with ``S_good_CC`` the ILP never runs
and coloring dominates (~73%); with ``S_bad_CC`` the ILP solver becomes
the bottleneck (~86%) and everything else shrinks in relative terms.
"""

from benchmarks.conftest import ccs_for, dataset
from repro.bench import render_breakdown, run_hybrid
from repro.datagen import all_dcs

SCALE = 10  # large enough that data-dependent stages dominate, as in the paper
NUM_CCS = 120  # the paper's cell uses 900 of 1001


def test_fig13_breakdown(benchmark):
    dcs = all_dcs()
    data = dataset(SCALE)
    breakdowns = {}
    rows = {}
    for kind in ("good", "bad"):
        ccs = ccs_for(SCALE, kind, num_ccs=NUM_CCS)
        row = run_hybrid(data, ccs, dcs, scale=f"{SCALE}x")
        rows[kind] = row
        breakdowns[kind] = {
            "pairwise_comparison": row.pairwise_seconds,
            "recursion": row.recursion_seconds,
            "ilp_solver": row.ilp_seconds,
            "completion": row.completion_seconds,
            "coloring": row.coloring_seconds,
        }

    for kind, breakdown in breakdowns.items():
        print("\n" + render_breakdown(
            f"Figure 13 — stage breakdown, {NUM_CCS} CCs from S_{kind}_CC",
            breakdown,
        ))

    # The paper's shape, asserted on deterministic work counts rather
    # than wall-clock orderings: good CCs never build an ILP, bad CCs
    # pay for one (paper: 86% of the bad profile), and both colour the
    # same partitions.  The counts were measured at scale 10, 120 CCs.
    good, bad = rows["good"], rows["bad"]
    assert good.ilp_variables == 0
    assert good.conflict_edges == 30_483
    assert good.partitions == 36
    assert bad.ilp_variables == 6_732
    assert bad.conflict_edges == 39_436

    ccs = ccs_for(SCALE, "good", num_ccs=NUM_CCS)
    benchmark.pedantic(
        lambda: run_hybrid(data, ccs, dcs), rounds=1, iterations=1
    )
