"""EdgeCache: persistence, atomicity, and the domain escape hatch."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.relational.relation import Relation
from repro.relational.schema import ColumnSpec, Schema
from repro.relational.store import _NPY_PREAMBLE
from repro.relational.types import CatDomain, Dtype
from repro.service.cache import _ENTRY_VERSION, EdgeCache
from repro.service.engine import run_spec
from repro.spec.api import EdgeReport
from repro.spec.io import load_spec

UNIVERSITY = (
    Path(__file__).resolve().parents[2] / "examples/specs/university.toml"
)


@pytest.fixture
def parent() -> Relation:
    return Relation.from_columns(
        {"hid": [1, 2, 3], "Area": ["NYC", "Chicago", "NYC"]}, key="hid"
    )


@pytest.fixture
def fk_spec() -> ColumnSpec:
    return ColumnSpec("hid", Dtype.INT)


FK_VALUES = np.asarray([1, 1, 2, 3, 2], dtype=np.int64)
REPORT = {"strategy": "coloring", "wall_seconds": 0.5}


def test_memory_round_trip(fk_spec, parent):
    cache = EdgeCache()
    assert cache.get("fp1") is None
    assert cache.put("fp1", fk_spec, FK_VALUES, parent, REPORT)
    entry = cache.get("fp1")
    assert entry is not None
    assert entry.fk_spec == fk_spec
    np.testing.assert_array_equal(entry.fk_values, FK_VALUES)
    assert entry.report == REPORT
    assert cache.stats()["entries"] == 1
    assert cache.stats()["hits"] == 1
    assert cache.stats()["misses"] == 1


def test_disk_round_trip_across_instances(tmp_path, fk_spec, parent):
    EdgeCache(tmp_path / "c").put(
        "fp1", fk_spec, FK_VALUES, parent, REPORT
    )
    # A fresh instance (fresh process, conceptually) sees the entry.
    fresh = EdgeCache(tmp_path / "c")
    entry = fresh.get("fp1")
    assert entry is not None
    np.testing.assert_array_equal(entry.fk_values, FK_VALUES)
    assert entry.parent.schema == parent.schema
    for name in parent.schema.names:
        np.testing.assert_array_equal(
            entry.parent.column(name), parent.column(name)
        )
    assert entry.report == REPORT


def test_str_fk_values_round_trip(tmp_path):
    parent = Relation.from_columns(
        {"code": ["a", "b"], "v": [1, 2]}, key="code"
    )
    spec = ColumnSpec("code", Dtype.STR)
    values = np.asarray(["b", "a", "b"], dtype=object)
    EdgeCache(tmp_path / "c").put("fp", spec, values, parent, {})
    entry = EdgeCache(tmp_path / "c").get("fp")
    np.testing.assert_array_equal(entry.fk_values, values)


def test_no_partial_entries_on_disk(tmp_path, fk_spec, parent):
    cache = EdgeCache(tmp_path / "c")
    cache.put("fp1", fk_spec, FK_VALUES, parent, REPORT)
    # Only complete, atomically renamed entries are visible: anything
    # else in the directory must be a temp leftover, and there are none.
    entries = list((tmp_path / "c").iterdir())
    assert [e.name for e in entries] == ["fp1"]
    assert (entries[0] / "meta.json").is_file()


def test_domain_bearing_entries_are_skipped(fk_spec):
    domain = CatDomain(["NYC", "Chicago"])
    parent = Relation(
        Schema(
            (
                ColumnSpec("hid", Dtype.INT),
                ColumnSpec("Area", Dtype.STR, domain),
            ),
            key="hid",
        ),
        {
            "hid": np.asarray([1, 2], dtype=np.int64),
            "Area": np.asarray(["NYC", "Chicago"], dtype=object),
        },
    )
    cache = EdgeCache()
    assert not cache.put("fp", fk_spec, FK_VALUES[:2], parent, {})
    assert cache.get("fp") is None


def test_unknown_version_is_a_miss(tmp_path, fk_spec, parent):
    cache = EdgeCache(tmp_path / "c")
    cache.put("fp1", fk_spec, FK_VALUES, parent, REPORT)
    meta = tmp_path / "c" / "fp1" / "meta.json"
    meta.write_text(
        meta.read_text().replace(
            f'"version": {_ENTRY_VERSION}', '"version": 99'
        )
    )
    assert EdgeCache(tmp_path / "c").get("fp1") is None


def test_stale_version_entry_is_replaced(tmp_path, fk_spec, parent):
    # A version-1 entry whose report still carries the dropped
    # ``executor`` field: it must miss, and the next put must replace it
    # (its fingerprint is unchanged, so skipping the write would make
    # that edge miss in every later process).
    report = {
        "child": "persons", "column": "hid", "parent": "housing",
        "strategy": "coloring", "num_ccs": 0, "num_dcs": 0,
        "phase1_seconds": 0.1, "phase2_seconds": 0.2,
        "num_new_parent_tuples": 0, "num_conflict_edges": 0,
        "num_partitions": 1, "total_overflow": 0, "solver_overrides": {},
        "wall_seconds": 0.3,
    }
    EdgeCache(tmp_path / "c").put("fp1", fk_spec, FK_VALUES, parent, report)
    meta_path = tmp_path / "c" / "fp1" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["version"] = 1
    meta["report"]["executor"] = "numpy"
    meta_path.write_text(json.dumps(meta))

    second = EdgeCache(tmp_path / "c")
    assert second.get("fp1") is None
    assert second.put("fp1", fk_spec, FK_VALUES, parent, report)
    assert sorted(p.name for p in (tmp_path / "c").iterdir()) == ["fp1"]

    third = EdgeCache(tmp_path / "c")
    entry = third.get("fp1")
    assert entry is not None and third.stats()["hits"] == 1
    assert entry.report == report
    EdgeReport.from_payload(entry.report, cache_hit=True)


# ----------------------------------------------------------------------
# Damaged entries: a miss and a re-solve, never a splice
# ----------------------------------------------------------------------


def _flip_first_value_bit(path):
    data = bytearray(path.read_bytes())
    data[_NPY_PREAMBLE] ^= 1
    path.write_bytes(data)


def _cut_tail(path):
    path.write_bytes(path.read_bytes()[:-8])


def _half_meta(path):
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


@pytest.mark.parametrize(
    "damage",
    [
        # One bit of the first FK value, in every entry.
        lambda entries: [
            _flip_first_value_bit(e / "fk" / "col_0.npy") for e in entries
        ],
        # The last value of one entry's first parent column.
        lambda entries: _cut_tail(entries[0] / "parent" / "col_0.npy"),
        # A half-written meta.json.
        lambda entries: _half_meta(entries[0] / "meta.json"),
    ],
    ids=["fk-bit-flip", "parent-truncated", "meta-half-written"],
)
def test_damaged_entry_is_a_miss(tmp_path, damage):
    spec = load_spec(UNIVERSITY).with_options(workers=0)
    directory = tmp_path / "c"
    cold = run_spec(spec, cache=EdgeCache(directory))
    entries = sorted(p for p in directory.iterdir() if p.is_dir())
    assert len(entries) == len(cold.edges) == 3
    damage(entries)

    warm = run_spec(spec, cache=EdgeCache(directory))
    assert not all(e.cache_hit for e in warm.edges)
    assert warm.database.identical_to(cold.database)
    # The re-solved edges replaced the damaged entries.
    again = run_spec(spec, cache=EdgeCache(directory))
    assert all(e.cache_hit for e in again.edges)
    assert again.database.identical_to(cold.database)
