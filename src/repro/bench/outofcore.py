"""Subprocess entry point for the out-of-core benchmark.

Peak RSS (``resource.getrusage(...).ru_maxrss``) is a process-lifetime
high-water mark, so a meaningful memory measurement needs a process that
does *only* the measured work: ``benchmarks/test_microbench_outofcore.py``
launches this module as ``python -m repro.bench.outofcore`` and reads the
JSON report it emits.  Runnable by hand, too::

    PYTHONPATH=src python -m repro.bench.outofcore \
        --rows 10000000 --storage mmap --budget-mb 4096

The run verifies its own output — every ``(Segment, Region)`` CC cell of
the workload must land exactly on target (streamed through the chunked
``group_counts`` kernel, so verification itself stays in budget) — and
reports ``cc_exact``/``within_budget`` for the caller to gate on.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Dict, Optional, Tuple

from repro.datagen.outofcore import (
    OutOfCoreConfig,
    expected_cell_counts,
    outofcore_spec,
)
from repro.relational.store import DEFAULT_CHUNK_ROWS
from repro.spec.api import synthesize

__all__ = ["peak_rss_mb", "run"]


def peak_rss_mb() -> float:
    """This process's peak resident set in MiB (Linux ``ru_maxrss`` KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _observed_cells(result) -> Tuple[Dict[Tuple[str, str], int], int]:
    """Synthesized ``(segment, region)`` counts, via chunked kernels."""
    events = result.relation("events")
    sites = result.relation("sites")
    region_of = dict(
        zip(sites.column("sid").tolist(), sites.column("Region").tolist())
    )
    cells: Dict[Tuple[str, str], int] = {}
    counts = events.group_counts(("Segment", "site_id"))
    for (segment, sid), count in counts.items():
        key = (segment, region_of[sid])
        cells[key] = cells.get(key, 0) + count
    return cells, len(events)


def run(
    rows: int,
    storage: str = "mmap",
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    budget_mb: Optional[int] = None,
    seed: int = 0,
) -> dict:
    """Generate, synthesize and verify one out-of-core workload."""
    started = time.perf_counter()
    spec = outofcore_spec(
        rows,
        storage=storage,
        chunk_rows=chunk_rows,
        evaluate=False,
        seed=seed,
    )
    gen_s = time.perf_counter() - started

    started = time.perf_counter()
    result = synthesize(spec)
    solve_s = time.perf_counter() - started

    started = time.perf_counter()
    config = OutOfCoreConfig(rows=rows, seed=seed)
    observed, total = _observed_cells(result)
    segment_counts = [0] * config.segments
    for k in range(config.segments):
        segment_counts[k] = sum(
            count
            for (segment, _), count in observed.items()
            if segment == config.segment_label(k)
        )
    expected = expected_cell_counts(config, segment_counts)
    cc_exact = total == rows and all(
        observed.get(cell, 0) == target
        for cell, target in expected.items()
    )
    verify_s = time.perf_counter() - started

    rss = peak_rss_mb()
    return {
        "rows": rows,
        "storage": storage,
        "chunk_rows": chunk_rows,
        "memory_budget_mb": budget_mb,
        "gen_s": round(gen_s, 3),
        "solve_s": round(solve_s, 3),
        "verify_s": round(verify_s, 3),
        "wall_s": round(gen_s + solve_s + verify_s, 3),
        "peak_rss_mb": round(rss, 1),
        "cc_exact": cc_exact,
        "within_budget": budget_mb is None or rss <= budget_mb,
        "new_parent_tuples": result.edges[0].num_new_parent_tuples,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--storage", choices=("numpy", "mmap"),
                        default="mmap")
    parser.add_argument("--chunk-rows", type=int,
                        default=DEFAULT_CHUNK_ROWS, dest="chunk_rows")
    parser.add_argument("--budget-mb", type=int, default=None,
                        dest="budget_mb")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json-out", default="", dest="json_out",
                        help="also write the report to this file")
    args = parser.parse_args(argv)

    report = run(
        rows=args.rows,
        storage=args.storage,
        chunk_rows=args.chunk_rows,
        budget_mb=args.budget_mb,
        seed=args.seed,
    )
    text = json.dumps(report, indent=2)
    print(text)
    if args.json_out:
        with open(args.json_out, "w") as handle:
            handle.write(text + "\n")
    if not report["cc_exact"]:
        print("error: CC cells missed their targets", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
