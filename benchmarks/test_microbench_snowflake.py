"""Microbenchmark for the parallel snowflake traversal.

Times the depth-layered scheduler on a wide-star snowflake: a small fact
table fanning out to ``ARMS`` dimensions, each dimension carrying one
constraint-heavy FK hop into its own sub-dimension.  The fact edges share
the fact table and therefore serialize; the four arm edges are mutually
conflict-free and fan out on the process pool — the workload the
Appendix-A.3-style per-edge independence argument promises near-linear
scaling on.  Emits ``BENCH_snowflake.json`` next to this file.

Acceptance gate: at ``workers=4`` the traversal must be ≥ 2× faster than
the sequential path.  The gate only arms on machines with at least 4 CPU
cores (CI smoke runners and single-core boxes cannot express a parallel
speedup); the equivalence assertion — parallel output byte-identical to
sequential — runs everywhere, every time.

Set ``REPRO_BENCH_SMOKE=1`` (CI) to run a tiny size with no perf gate —
the JSON report is still emitted and validated.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.constraints.parser import parse_cc, parse_dc
from repro.core.config import SolverConfig
from repro.core.snowflake import EdgeConstraints, SnowflakeSynthesizer
from repro.relational.database import Database
from repro.relational.relation import Relation

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
DIM_ROWS = 300 if SMOKE else 2_000
ARMS = 4
WORKERS = 4
GATE_SPEEDUP = 2.0
GATE_MIN_CORES = 4
OUTPUT = Path(__file__).parent / "BENCH_snowflake.json"


def _wide_star(n_dim: int, arms: int, seed: int = 7):
    """Fact → ``arms`` dimensions, each with one heavy sub-dimension hop."""
    rng = np.random.default_rng(seed)
    db = Database()
    db.add_relation(
        "F",
        Relation.from_columns(
            {
                "fid": list(range(50)),
                "W": rng.integers(1, 4, 50).tolist(),
            },
            key="fid",
        ),
    )
    constraints = {}
    for i in range(arms):
        dim, sub = f"D{i}", f"S{i}"
        db.add_relation(
            dim,
            Relation.from_columns(
                {
                    f"d{i}": list(range(n_dim)),
                    f"X{i}": rng.integers(0, 40, n_dim).tolist(),
                    f"Y{i}": rng.integers(0, 6, n_dim).tolist(),
                },
                key=f"d{i}",
            ),
        )
        db.add_relation(
            sub,
            Relation.from_columns(
                {
                    f"s{i}": list(range(40)),
                    f"G{i}": [f"g{j % 5}" for j in range(40)],
                },
                key=f"s{i}",
            ),
        )
        db.add_foreign_key("F", f"fk_d{i}", dim)
        db.add_foreign_key(dim, f"fk_s{i}", sub)
        ccs = [
            parse_cc(
                f"|X{i} >= {7 * k % 35} & X{i} <= {7 * k % 35 + 8} "
                f"& G{i} == 'g{k % 5}'| = {20 + k}"
            )
            for k in range(8)
        ]
        dcs = [
            parse_dc(f"not(t1.Y{i} == {a} & t2.Y{i} == {b})")
            for a, b in ((0, 1), (2, 3), (4, 5))
        ]
        constraints[(dim, f"fk_s{i}")] = EdgeConstraints(ccs=ccs, dcs=dcs)
    return db, constraints


def test_microbench_snowflake():
    db, constraints = _wide_star(DIM_ROWS, ARMS)
    config = SolverConfig(evaluate=False)

    started = time.perf_counter()
    sequential = SnowflakeSynthesizer(config).solve(db, "F", constraints)
    sequential_s = time.perf_counter() - started

    started = time.perf_counter()
    parallel = SnowflakeSynthesizer(replace(config, workers=WORKERS)).solve(
        db, "F", constraints
    )
    parallel_s = time.perf_counter() - started

    # Determinism is part of the bench contract, not just the tests.
    assert sequential.database.identical_to(parallel.database), (
        "parallel output differs from sequential"
    )

    speedup = sequential_s / parallel_s
    cores = os.cpu_count() or 1
    report = {
        "rows": {
            str(DIM_ROWS): {
                "snowflake_traversal": {
                    "sequential_s": round(sequential_s, 6),
                    "parallel_s": round(parallel_s, 6),
                    "speedup": round(speedup, 2),
                    "workers": WORKERS,
                    "arms": ARMS,
                    "cores": cores,
                }
            }
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"\nSnowflake traversal microbench (BENCH_snowflake.json)\n"
        f"{ARMS}-wide star, {DIM_ROWS} rows/dimension, {cores} cores: "
        f"sequential {sequential_s:.3f}s, workers={WORKERS} "
        f"{parallel_s:.3f}s ({speedup:.2f}x)"
    )

    if not SMOKE and cores >= GATE_MIN_CORES:
        assert speedup >= GATE_SPEEDUP, (
            f"parallel snowflake speedup at workers={WORKERS} was only "
            f"{speedup:.2f}x on {cores} cores (gate: {GATE_SPEEDUP}x)"
        )
