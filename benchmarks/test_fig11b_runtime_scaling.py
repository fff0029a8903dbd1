"""Figure 11b — hybrid runtime over larger scales, good vs bad CCs.

Paper shape: runtime grows roughly linearly with data scale; the bad CC
family costs more than the good one at every scale (the ILP leg), and
Phase II dominates when CCs are good (no ILP at all).  The timings are
printed; the asserts check the work behind them: conflict edges grow
with scale, and only the bad family builds an ILP.
"""

from benchmarks.conftest import ccs_for, dataset
from repro.bench import render_series, run_hybrid
from repro.datagen import good_dcs

SCALES = (2, 5, 10)


def test_fig11b_scaling(benchmark):
    dcs = good_dcs()
    # Warm-up solves, discarded: the first run of each CC family pays
    # one-off import/solver-initialisation costs (the bad family's ILP
    # leg loads HiGHS) that otherwise land entirely on the smallest
    # scale and can invert the measured scaling curve.
    for kind in ("good", "bad"):
        run_hybrid(dataset(SCALES[0]), ccs_for(SCALES[0], kind), dcs)
    series = {"good_cc.total": [], "bad_cc.total": [],
              "good_cc.phase2": [], "bad_cc.phase2": []}
    edges = {"good": [], "bad": []}
    ilp_variables = {"good": [], "bad": []}
    for scale in SCALES:
        data = dataset(scale)
        for kind in ("good", "bad"):
            row = run_hybrid(data, ccs_for(scale, kind), dcs, scale=f"{scale}x")
            series[f"{kind}_cc.total"].append((f"{scale}x", row.total_seconds))
            series[f"{kind}_cc.phase2"].append((f"{scale}x", row.phase2_seconds))
            edges[kind].append(row.conflict_edges)
            ilp_variables[kind].append(row.ilp_variables)
            assert row.dc_error == 0.0

    print("\n" + render_series(
        "Figure 11b — hybrid runtime vs scale (S_good_DC)", series
    ))

    # Phase II work grows with the data scale for both families.
    for kind in ("good", "bad"):
        assert all(a < b for a, b in zip(edges[kind], edges[kind][1:]))
    # The ILP leg only fires for the intersecting (bad) family.
    assert ilp_variables["good"] == [0] * len(SCALES)
    assert all(v > 0 for v in ilp_variables["bad"])

    data = dataset(SCALES[0])
    ccs = ccs_for(SCALES[0], "good")
    benchmark.pedantic(
        lambda: run_hybrid(data, ccs, dcs), rounds=1, iterations=1
    )
