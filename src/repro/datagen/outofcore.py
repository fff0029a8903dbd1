"""The out-of-core scale workload: a fact table too big to treat casually.

One FK edge — ``events.site_id -> sites`` — with a CC for every
``(Segment, Region)`` cell, targets chosen so the CC system is exactly
satisfiable (per-segment counts split across regions).  The shape is
deliberately kernel-friendly at any scale:

* all CCs are conjunctive and pairwise disjoint, so Phase I routes them
  to the vectorised S1 Hasse-diagram solver (no ILP, no per-row loop);
* the targets of a segment sum to its exact row count, so every row is
  covered and the leftover-completion sweep exits immediately;
* there are no DCs, so Phase II's per-partition coloring degenerates to
  the empty-graph fast path.

What remains is exactly what the out-of-core benchmark wants to measure:
CSV-free block generation, chunked masks and factorizations, the
chunk-merge group kernels and the partitioned FK assignment — at 10M rows
under a fixed RAM budget.

Event blocks are generated with one RNG per fixed-size *generation*
block, independent of the storage ``chunk_rows``, so the numpy and mmap
backends see bit-identical data and their outputs can be compared with
``Database.identical_to``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.relational.relation import Relation
from repro.relational.schema import ColumnSpec, Schema
from repro.relational.store import DEFAULT_CHUNK_ROWS, MmapStoreWriter
from repro.relational.types import Dtype
from repro.spec.builder import SpecBuilder
from repro.spec.model import SynthesisSpec

__all__ = [
    "OutOfCoreConfig",
    "expected_cell_counts",
    "generate_events",
    "outofcore_spec",
]

#: Rows per generation block.  Fixed (never tied to ``chunk_rows``) so
#: the generated values depend only on ``seed`` and ``rows``.
GEN_BLOCK_ROWS = 262_144


@dataclass(frozen=True)
class OutOfCoreConfig:
    """Shape of the out-of-core workload."""

    rows: int
    sites: int = 60
    regions: int = 6
    segments: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rows < 0:
            raise ValueError("rows must be >= 0")
        if self.sites < self.regions:
            raise ValueError("need at least one site per region")

    def region_label(self, j: int) -> str:
        return f"R{j}"

    def segment_label(self, k: int) -> str:
        return f"S{k}"


_EVENT_SCHEMA_COLUMNS = [
    ColumnSpec("eid", Dtype.INT),
    ColumnSpec("Segment", Dtype.STR),
    ColumnSpec("Load", Dtype.INT),
]


def _block_rng(config: OutOfCoreConfig, index: int) -> np.random.Generator:
    return np.random.default_rng((config.seed, index))


def _event_block(
    config: OutOfCoreConfig, index: int, start: int, stop: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(eid, segment_codes, load)`` for generation block ``index``."""
    rng = _block_rng(config, index)
    n = stop - start
    return (
        np.arange(start, stop, dtype=np.int64),
        rng.integers(0, config.segments, n, dtype=np.int64),
        rng.integers(0, 100, n, dtype=np.int64),
    )


def generate_events(
    config: OutOfCoreConfig,
    storage: str = "numpy",
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    directory: Optional[Union[str, object]] = None,
) -> Tuple[Relation, np.ndarray]:
    """The fact table plus the per-segment row counts.

    ``storage="mmap"`` streams each generation block straight into a
    chunked column store — the 10M-row table never exists in RAM.  Either
    backend yields bit-identical values.
    """
    schema = Schema(list(_EVENT_SCHEMA_COLUMNS), key="eid")
    labels = np.asarray(
        [config.segment_label(k) for k in range(config.segments)],
        dtype=object,
    )
    segment_counts = np.zeros(config.segments, dtype=np.int64)
    writer = None
    parts: Dict[str, List[np.ndarray]] = {"eid": [], "Segment": [], "Load": []}
    if storage == "mmap":
        writer = MmapStoreWriter(directory, schema, chunk_rows=chunk_rows)
    try:
        for index, start in enumerate(
            range(0, config.rows, GEN_BLOCK_ROWS)
        ):
            stop = min(start + GEN_BLOCK_ROWS, config.rows)
            eid, codes, load = _event_block(config, index, start, stop)
            segment_counts += np.bincount(codes, minlength=config.segments)
            segment = labels[codes]
            if writer is not None:
                writer.append(
                    {"eid": eid, "Segment": segment, "Load": load}
                )
            else:
                parts["eid"].append(eid)
                parts["Segment"].append(segment)
                parts["Load"].append(load)
    except BaseException:
        if writer is not None:
            writer.discard()
        raise
    if writer is not None:
        return Relation(schema, writer.finalize()), segment_counts
    columns = {
        name: (
            np.concatenate(arrays)
            if arrays
            else np.asarray(
                [], dtype=object if name == "Segment" else np.int64
            )
        )
        for name, arrays in parts.items()
    }
    return Relation(schema, columns), segment_counts


def expected_cell_counts(
    config: OutOfCoreConfig, segment_counts: np.ndarray
) -> Dict[Tuple[str, str], int]:
    """CC target per ``(segment, region)`` cell.

    Each segment's count splits as evenly as possible across the regions
    (remainder to the lowest-numbered ones), so targets are non-negative
    and sum to the exact segment counts — the CC system is satisfiable
    with zero error.
    """
    targets: Dict[Tuple[str, str], int] = {}
    for k in range(config.segments):
        count = int(segment_counts[k])
        base, rem = divmod(count, config.regions)
        for j in range(config.regions):
            targets[(config.segment_label(k), config.region_label(j))] = (
                base + (1 if j < rem else 0)
            )
    return targets


def outofcore_spec(
    rows: int,
    *,
    storage: str = "numpy",
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    storage_dir: Optional[str] = None,
    evaluate: bool = False,
    seed: int = 0,
) -> SynthesisSpec:
    """The full out-of-core workload as a runnable spec.

    The same ``rows``/``seed`` always describe the same data and CC
    targets, whatever the storage backend — ``synthesize()`` on the
    ``"numpy"`` and ``"mmap"`` variants must be ``Database.identical_to``.
    """
    config = OutOfCoreConfig(rows=rows, seed=seed)
    events, segment_counts = generate_events(
        config,
        storage=storage,
        chunk_rows=chunk_rows,
        directory=(
            None if storage_dir is None else f"{storage_dir}/events"
        ),
    )
    sites = {
        "sid": list(range(config.sites)),
        "Region": [
            config.region_label(s % config.regions)
            for s in range(config.sites)
        ],
    }
    ccs = [
        f"|Segment == '{segment}' & Region == '{region}'| = {target}"
        for (segment, region), target in sorted(
            expected_cell_counts(config, segment_counts).items()
        )
    ]
    return (
        SpecBuilder("outofcore")
        .relation("sites", columns=sites, key="sid")
        .relation("events", data=events)
        .edge("events", "site_id", "sites", ccs=ccs)
        .fact_table("events")
        .options(
            storage=storage,
            chunk_rows=chunk_rows,
            storage_dir=storage_dir,
            evaluate=evaluate,
        )
        .build()
    )
