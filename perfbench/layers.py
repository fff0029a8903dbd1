"""Which layer each per-layer metric measures, and what it should move.

Layers are the ``src/repro`` modules (plus the interpreter's GC).  For
each: its metrics, the end-to-end metrics a change to it should move,
the workload where it does most of the work, and the workloads where it
should stay flat.  A perf issue names one of these rows before any code
is written.

``SHARES_AT_SEED`` holds each layer metric's share of ``trace.cycle_s``
(one set-up + one synthesis + one re-synthesis) from
``python3 perfbench/run.py --workload <w> --seed 1 --seconds 12 --trace 1``
on a 2-core x86-64 VM with the checkout on ext4.  Shares below 1% are
left out.
"""

from __future__ import annotations

from typing import Dict

LAYERS: Dict[str, Dict[str, object]] = {
    "spec": {
        "metrics": ["spec.load_s", "spec.build_s", "spec.fingerprint_s"],
        "moves": ["setup_s", "resynth_s"],
        "most_work": "retail_edit (CSV build and fingerprint are most of "
                     "an edit, and 30% of its cycle)",
        "flat_on": ["census_alldc"],
    },
    "relational": {
        "metrics": [
            "relational.csv_infer_s", "relational.csv_read_s",
            "relational.csv_bytes", "relational.csv_mb_per_s",
            "relational.fk_join_s", "relational.fk_join_calls",
        ],
        "moves": ["setup_s", "resynth_s"],
        "most_work": "retail_edit (CSV inference + read on every set-up, "
                     "cold run and edit)",
        "flat_on": ["census_alldc"],
    },
    "constraints": {
        "metrics": ["constraints.pairwise_s", "constraints.binning_s"],
        "moves": ["synth_s"],
        "most_work": "census_alldc (pairwise CC classification, small)",
        "flat_on": ["retail_edit"],
    },
    "phase1": {
        "metrics": [
            "phase1.total_s", "phase1.self_s", "phase1.hasse_s",
            "phase1.ilp_s", "phase1.ccs_alg2", "phase1.ccs_ilp",
            "phase1.invalid_rows",
        ],
        "moves": ["synth_s"],
        "most_work": "retail_edit (self time: leftover completion of the "
                     "product edge)",
        "flat_on": ["census_alldc"],
    },
    "solver": {
        "metrics": [
            "solver.solve_s", "solver.ilp_vars", "solver.ilp_rows",
            "solver.status",
        ],
        "moves": ["synth_s"],
        "most_work": "retail_edit (a small ILP on each fact edge)",
        "flat_on": ["census_alldc"],
    },
    "phase2": {
        "metrics": [
            "phase2.total_s", "phase2.partition_s",
            "phase2.conflict_graph_s", "phase2.coloring_s",
            "phase2.invalid_s", "phase2.self_s", "phase2.conflict_edges",
            "phase2.partitions", "phase2.skipped", "phase2.fresh_keys",
            "phase2.conflict_edges_per_s",
        ],
        "moves": ["synth_s", "peak_rss_mb"],
        "most_work": "census_alldc (conflict graph + coloring)",
        "flat_on": ["retail_edit"],
    },
    "core": {
        "metrics": [
            "core.traverse_s", "core.evaluate_s", "core.dc_error_s",
            "core.cc_errors_s", "core.commit_s", "core.dc_pairs",
            "core.dc_pairs_per_s",
        ],
        "moves": ["synth_s"],
        "most_work": "census_alldc (DC-error evaluation)",
        "flat_on": ["retail_edit"],
    },
    "service": {
        "metrics": [
            "service.cache_get_s", "service.cache_put_s",
            "service.cache_hits", "service.cache_misses",
            "service.cache_stores", "service.hit_ratio",
            "service.cache_bytes",
        ],
        "moves": ["synth_s", "resynth_s"],
        "most_work": "retail_edit (writes in the cold run, reads in the "
                     "edits)",
        "flat_on": ["census_alldc"],
    },
    "python": {
        "metrics": ["python.gc_s", "python.gc_collections"],
        "moves": ["synth_s"],
        "most_work": "census_alldc (one frozenset per conflict edge)",
        "flat_on": ["retail_edit"],
    },
    "benchmark": {
        "metrics": [
            "input.rows", "input.csv_bytes", "trace.cycle_s",
            "trace.coverage", "trace.overhead",
        ],
        "moves": [],
        "most_work": "bases for the rates and shares above, and the "
                     "trace's own health: coverage of each timed unit by "
                     "top-level spans, traced/untraced synth_s",
        "flat_on": [],
    },
}

SHARES_AT_SEED: Dict[str, Dict[str, float]] = {
    # trace.cycle_s = 4.51 s
    "census_alldc": {
        "phase2.total_s": 0.574,
        "phase2.conflict_graph_s": 0.344,
        "core.evaluate_s": 0.314,
        "core.dc_error_s": 0.309,
        "phase2.coloring_s": 0.208,
        "phase1.total_s": 0.092,
        "phase1.self_s": 0.078,
        "python.gc_s": 0.044,
        "phase2.self_s": 0.021,
        "spec.build_s": 0.013,
    },
    # trace.cycle_s = 3.35 s
    "retail_edit": {
        "phase1.total_s": 0.543,
        "phase1.self_s": 0.505,
        "spec.build_s": 0.302,
        "relational.csv_read_s": 0.173,
        "relational.csv_infer_s": 0.13,
        "core.evaluate_s": 0.077,
        "core.cc_errors_s": 0.074,
        "python.gc_s": 0.054,
        "spec.fingerprint_s": 0.05,
        "phase1.ilp_s": 0.036,
        "phase2.total_s": 0.021,
        "phase2.self_s": 0.014,
    },
}


def shares(metrics: Dict[str, float]) -> Dict[str, float]:
    """Each time metric's share of ``trace.cycle_s``, largest first."""
    cycle = metrics["trace.cycle_s"]
    out = {
        name: value / cycle
        for name, value in metrics.items()
        if name.endswith("_s") and not name.endswith("_per_s")
        and not name.startswith("trace.") and value / cycle >= 0.01
    }
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
