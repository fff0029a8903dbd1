"""Figure 11a — runtime: baselines vs hybrid, with phase shading.

Paper shape: the baselines spend almost everything in Phase I (the one
monolithic ILP); their Phase II (random assignment) is negligible.  The
hybrid splits intersecting CCs away from the exact recursion, so its
Phase I is far cheaper; it pays a real Phase II (coloring) instead.  The
paper reports the hybrid ~17× faster overall at scale; at mini scale we
print the timings and assert the structural facts behind them (ILP
sizes, conflict edges) rather than a wall-clock multiple.
"""

from benchmarks.conftest import ccs_for, dataset
from repro.bench import render_series, run_baseline, run_hybrid
from repro.datagen import all_dcs

SCALES = (2, 5)


def test_fig11a_runtime(benchmark):
    dcs = all_dcs()
    series = {"baseline.phase1": [], "baseline.phase2": [],
              "baseline+marg.phase1": [], "baseline+marg.phase2": [],
              "hybrid.phase1": [], "hybrid.phase2": []}
    checks = []
    for scale in SCALES:
        data = dataset(scale)
        ccs = ccs_for(scale, "bad")
        base = run_baseline(data, ccs, dcs, scale=f"{scale}x")
        marg = run_baseline(
            data, ccs, dcs, scale=f"{scale}x", with_marginals=True
        )
        hybrid = run_hybrid(data, ccs, dcs, scale=f"{scale}x")
        series["baseline.phase1"].append((f"{scale}x", base.phase1_seconds))
        series["baseline.phase2"].append((f"{scale}x", base.phase2_seconds))
        series["baseline+marg.phase1"].append((f"{scale}x", marg.phase1_seconds))
        series["baseline+marg.phase2"].append((f"{scale}x", marg.phase2_seconds))
        series["hybrid.phase1"].append((f"{scale}x", hybrid.phase1_seconds))
        series["hybrid.phase2"].append((f"{scale}x", hybrid.phase2_seconds))
        checks.append((base, marg, hybrid))

    print("\n" + render_series(
        "Figure 11a — runtime by phase, S_all_DC + S_bad_CC", series
    ))

    for base, marg, hybrid in checks:
        # Baselines put every CC into one monolithic ILP, larger than
        # the hybrid's, which only takes the intersecting CCs…
        assert base.ilp_variables > hybrid.ilp_variables > 0
        # …while the hybrid does real Phase II work (coloring a conflict
        # graph; the baselines assign at random) yet stays DC-exact.
        assert hybrid.conflict_edges > 0
        assert hybrid.dc_error == 0.0
        # Marginal rows make the baseline's ILP at least as large.
        assert marg.ilp_variables >= base.ilp_variables

    data, ccs = dataset(SCALES[0]), ccs_for(SCALES[0], "bad")
    benchmark.pedantic(
        lambda: run_hybrid(data, ccs, dcs), rounds=1, iterations=1
    )
