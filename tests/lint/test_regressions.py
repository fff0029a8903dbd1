"""Regressions for the findings repro-lint's first run surfaced.

The first lint run flagged modules in bench/, datagen/ and
core/synthesizer, and hash-order-dependent set iteration in Phase II
(hypergraph vertex discovery, invalid-row conflict accumulation).
These tests pin both the behavioral fixes and the now-clean lint status
of each module.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.datagen.census import CensusConfig, generate_census
from repro.lint import lint_paths
from repro.phase2.hypergraph import ConflictHypergraph
from repro.relational.join import fk_join

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"

FIXED_MODULES = [
    "bench/fidelity.py",
    "bench/outofcore.py",
    "core/synthesizer.py",
    "datagen/census.py",
    "datagen/constraints_census.py",
    "datagen/retail.py",
    "phase2/hypergraph.py",
    "phase2/invalid.py",
]


@pytest.mark.parametrize("name", FIXED_MODULES)
def test_fixed_module_lints_clean_without_baseline(name):
    report = lint_paths([SRC / name], base=REPO_ROOT)
    assert report.new == [], "\n".join(d.render() for d in report.new)


def test_hypergraph_vertex_order_is_member_order_independent():
    orders = ([3, 1, 2], [2, 3, 1], [1, 2, 3])
    graphs = []
    for members in orders:
        g = ConflictHypergraph.over([])
        assert g.add_edge(members)
        graphs.append(g)
    assert all(g.vertices == [1, 2, 3] for g in graphs)
    # Incident indices agree too, whatever order the edge listed them.
    assert all(
        g.incident_edges(v) == graphs[0].incident_edges(v)
        for g in graphs
        for v in (1, 2, 3)
    )


def test_ground_truth_join_is_byte_identical():
    data = generate_census(CensusConfig(n_households=20, seed=11))
    truth = data.ground_truth_join()
    direct = fk_join(data.persons, data.housing, "hid")
    assert truth.content_hash() == direct.content_hash()


def test_marginal_tvd_support_order_is_canonical():
    from repro.bench.fidelity import marginal_tvd

    data = generate_census(CensusConfig(n_households=30, seed=5))
    view = data.ground_truth_join()
    assert marginal_tvd(view, view, ["Rel"]) == 0.0
    tvd = marginal_tvd(view, data.ground_truth_join(), ["Rel", "Area"])
    assert tvd == 0.0
