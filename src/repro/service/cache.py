"""The dependency-keyed edge-result cache.

One cache entry holds everything needed to *splice* a solved FK edge
into a fresh traversal without re-solving it: the imputed FK column
(spec + value array), the completed parent relation, and the serialized
per-edge report.  Entries are keyed by the edge's read-closure
fingerprint (:func:`repro.spec.fingerprint.edge_fingerprints`), so a
lookup hit certifies that re-solving would read byte-identical inputs
under result-identical options — committing the cached parts via
:meth:`SnowflakeSynthesizer.commit_edge` is therefore byte-identical to
a cold solve.

Persistence doubles as the job server's crash-safe checkpoint: every
completed edge is written to ``directory/<fingerprint>/`` (the
:class:`~repro.relational.store.MmapColumnStore` spill format for the
arrays, ``meta.json`` for schemas and the report) via a temp directory
plus one atomic rename, so a traversal killed mid-run resumes by simply
re-running — solved edges hit, the rest re-solve.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

import numpy as np

from repro.errors import SchemaError
from repro.relational.relation import Relation
from repro.relational.schema import ColumnSpec, Schema
from repro.relational.store import (
    DEFAULT_CHUNK_ROWS,
    MmapColumnStore,
    NumpyColumnStore,
)
from repro.relational.types import Dtype

__all__ = ["CachedEdge", "EdgeCache"]

#: Bump when the on-disk entry layout changes; entries written by an
#: older layout are ignored (a miss), never misread, and the next
#: :meth:`EdgeCache.put` of their fingerprint replaces them.  Version 2
#: dropped the per-edge report's ``executor`` field.
_ENTRY_VERSION = 2
_META = "meta.json"


@dataclass
class CachedEdge:
    """One cached edge result, ready to commit."""

    fk_spec: ColumnSpec
    fk_values: np.ndarray
    parent: Relation
    report: Dict[str, object] = field(default_factory=dict)


def _load_column(store: MmapColumnStore, spec: ColumnSpec) -> np.ndarray:
    """A cached column as ``spec`` declares it (checked on open)."""
    column = store.column(spec.name)
    if (column.dtype == object) != (spec.dtype is Dtype.STR):
        raise SchemaError(f"cached column {spec.name!r} is mistyped")
    return column


class EdgeCache:
    """Fingerprint-keyed store of solved edges, memory over disk.

    ``directory=None`` keeps the cache purely in-memory (no checkpoint
    durability); with a directory, every :meth:`put` persists the entry
    atomically and :meth:`get` falls back to disk — which is how a fresh
    process resumes a killed traversal.  Thread-safe: the job manager
    shares one cache across concurrently running jobs.
    """

    def __init__(
        self, directory: Optional[Union[str, Path]] = None
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._memory: Dict[str, CachedEdge] = {}
        self._lock = threading.Lock()
        self._counter = 0
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def __len__(self) -> int:
        with self._lock:
            known = set(self._memory)
        if self.directory is not None:
            known.update(
                entry.name
                for entry in self.directory.iterdir()
                if (entry / _META).is_file()
            )
        return len(known)

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
        }

    def get(self, fingerprint: str) -> Optional[CachedEdge]:
        """The cached edge for ``fingerprint``, or ``None`` (a miss)."""
        with self._lock:
            entry = self._memory.get(fingerprint)
        if entry is None and self.directory is not None:
            entry = self._load(self.directory / fingerprint)
            if entry is not None:
                with self._lock:
                    self._memory.setdefault(fingerprint, entry)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(
        self,
        fingerprint: str,
        fk_spec: ColumnSpec,
        fk_values: np.ndarray,
        parent: Relation,
        report: Mapping[str, object],
    ) -> bool:
        """Cache one solved edge; returns whether it was cacheable.

        Column domains have no stable serialized form, so an edge whose
        FK spec or parent schema carries one is skipped (``False``) —
        the traversal still completes, it just won't hit next time.
        """
        if fk_spec.domain is not None or any(
            spec.domain is not None for spec in parent.schema
        ):
            return False
        entry = CachedEdge(
            fk_spec=fk_spec,
            fk_values=fk_values,
            parent=parent,
            report=dict(report),
        )
        with self._lock:
            self._memory[fingerprint] = entry
            self._counter += 1
            counter = self._counter
        if self.directory is not None:
            self._persist(fingerprint, entry, counter)
        self.stores += 1
        return True

    # -- disk layer ----------------------------------------------------

    def _persist(
        self, fingerprint: str, entry: CachedEdge, counter: int
    ) -> None:
        final = self.directory / fingerprint
        meta_path = final / _META
        if meta_path.is_file():
            existing = json.loads(meta_path.read_text())
            if existing.get("version") == _ENTRY_VERSION:
                return
        suffix = f"{fingerprint[:16]}-{os.getpid()}-{counter}"
        tmp = self.directory / f".tmp-{suffix}"
        if tmp.exists():
            shutil.rmtree(tmp)
        try:
            fk_relation = Relation(
                Schema((entry.fk_spec,)),
                NumpyColumnStore({entry.fk_spec.name: entry.fk_values}),
            )
            fk_relation.to_store(DEFAULT_CHUNK_ROWS, tmp / "fk")
            entry.parent.to_store(DEFAULT_CHUNK_ROWS, tmp / "parent")
            meta = {
                "version": _ENTRY_VERSION,
                "fk": {
                    "name": entry.fk_spec.name,
                    "dtype": entry.fk_spec.dtype.value,
                },
                "parent": {
                    "columns": [
                        {"name": spec.name, "dtype": spec.dtype.value}
                        for spec in entry.parent.schema
                    ],
                    "key": entry.parent.schema.key,
                },
                "report": entry.report,
            }
            (tmp / _META).write_text(json.dumps(meta))
            # An entry of an older layout version is moved aside, so
            # the rename below can take its place, and deleted after.
            stale = self.directory / f".stale-{suffix}"
            try:
                final.rename(stale)
            except FileNotFoundError:
                pass  # nothing there (or another writer moved it first)
            try:
                tmp.rename(final)
            except OSError:
                # Lost a write race: an equivalent entry landed first.
                shutil.rmtree(tmp, ignore_errors=True)
            shutil.rmtree(stale, ignore_errors=True)
        except Exception:
            shutil.rmtree(tmp, ignore_errors=True)
            raise

    def _load(self, directory: Path) -> Optional[CachedEdge]:
        meta_path = directory / _META
        if not meta_path.is_file():
            return None
        meta = json.loads(meta_path.read_text())
        if meta.get("version") != _ENTRY_VERSION:
            return None
        fk_spec = ColumnSpec(meta["fk"]["name"], Dtype(meta["fk"]["dtype"]))
        fk_store = MmapColumnStore(directory / "fk")
        fk_values = _load_column(fk_store, fk_spec)
        columns = [
            ColumnSpec(item["name"], Dtype(item["dtype"]))
            for item in meta["parent"]["columns"]
        ]
        schema = Schema(tuple(columns), key=meta["parent"]["key"])
        parent_store = MmapColumnStore(directory / "parent")
        parent = Relation(
            schema,
            NumpyColumnStore(
                {
                    spec.name: _load_column(parent_store, spec)
                    for spec in columns
                }
            ),
        )
        return CachedEdge(
            fk_spec=fk_spec,
            fk_values=fk_values,
            parent=parent,
            report=dict(meta.get("report", {})),
        )
