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


def test_hypergraph_vertex_order_is_member_order_independent(
    graph_from_edges,
):
    orders = ([3, 1, 2], [2, 3, 1], [1, 2, 3])
    graphs = []
    for members in orders:
        pair = [v for v in members if v != 2]
        g = graph_from_edges([members, pair], vertices=members[::-1])
        assert g.num_edges == 2
        graphs.append(g)
    assert all(g.vertices.tolist() == [1, 2, 3] for g in graphs)
    # Visit order and incidence agree too, whatever order the rows and
    # edge members were listed in (rows 1..3 sit at positions 0..2).
    uncolored, one_color = [-1, -1, -1], [0, 0, 0]
    first = graphs[0]
    assert all(g.order(uncolored) == first.order(uncolored) for g in graphs)
    assert all(
        g.forbidden(i, one_color) == graphs[0].forbidden(i, one_color)
        for g in graphs
        for i in (0, 1, 2)
    )
    assert all(
        g.edges == graphs[0].edges
        and g.indptr.tolist() == graphs[0].indptr.tolist()
        and g.indices.tolist() == graphs[0].indices.tolist()
        for g in graphs
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
