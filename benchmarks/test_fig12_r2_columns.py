"""Figure 12 — hybrid runtime as Housing grows from 2 to 10 columns.

Paper shape: total runtime grows with the number of R2 columns, and the
coloring stage grows faster than the Hasse recursion (more distinct
B-combos → more, smaller partitions plus a wider ``combo_unused``
search).  Uses ``S_good_DC`` + ``S_good_CC`` as the paper does.
"""

from benchmarks.conftest import ccs_for, dataset
from repro.bench import render_series, run_hybrid
from repro.datagen import good_dcs

COLUMN_LADDER = (2, 4, 6, 8, 10)
SCALE = 2


def test_fig12_r2_columns(benchmark):
    dcs = good_dcs()
    series = {"total": [], "coloring": [], "recursion": []}
    partitions = []
    for n_cols in COLUMN_LADDER:
        data = dataset(SCALE, n_housing_columns=n_cols)
        ccs = ccs_for(SCALE, "good", n_housing_columns=n_cols)
        row = run_hybrid(data, ccs, dcs, scale=f"{n_cols}cols")
        series["total"].append((n_cols, row.total_seconds))
        series["coloring"].append((n_cols, row.coloring_seconds))
        series["recursion"].append((n_cols, row.recursion_seconds))
        partitions.append(row.partitions)
        assert row.dc_error == 0.0

    print("\n" + render_series(
        f"Figure 12 — hybrid runtime vs #R2 columns (scale {SCALE}x)", series
    ))

    print(f"partitions per width: {dict(zip(COLUMN_LADDER, partitions))}")
    # The mechanism behind the growth: wider Housing means more distinct
    # B-combos, hence more (smaller) coloring partitions.  Partition
    # counts are deterministic; the timings above are only reported.
    assert partitions[-1] > partitions[0]

    data = dataset(SCALE, n_housing_columns=4)
    ccs = ccs_for(SCALE, "good", n_housing_columns=4)
    benchmark.pedantic(
        lambda: run_hybrid(data, ccs, dcs), rounds=1, iterations=1
    )
