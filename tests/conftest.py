"""Shared fixtures: the paper's running example, a small census dataset
and conflict graphs with hand-picked edges."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Relation, parse_cc, parse_dc
from repro.constraints.dc import DenialConstraint, UnaryAtom
from repro.datagen import CensusConfig, all_dcs, cc_family, generate_census
from repro.phase2.coloring import coloring_lf
from repro.phase2.edges import build_conflict_graph


@pytest.fixture(scope="session")
def paper_r1() -> Relation:
    """Figure 1's Persons relation (without the missing hid column)."""
    return Relation.from_columns(
        {
            "pid": [1, 2, 3, 4, 5, 6, 7, 8, 9],
            "Age": [75, 75, 25, 25, 24, 10, 10, 30, 30],
            "Rel": ["Owner"] * 4 + ["Spouse", "Child", "Child", "Owner", "Owner"],
            "Multi": [0, 1, 0, 1, 0, 1, 1, 0, 1],
        },
        key="pid",
    )


@pytest.fixture(scope="session")
def paper_r2() -> Relation:
    """Figure 1's Housing relation."""
    return Relation.from_columns(
        {"hid": [1, 2, 3, 4, 5, 6], "Area": ["Chicago"] * 4 + ["NYC"] * 2},
        key="hid",
    )


@pytest.fixture(scope="session")
def paper_ccs():
    """Figure 2b's four cardinality constraints."""
    return [
        parse_cc("|Rel == 'Owner' & Area == 'Chicago'| = 4", name="CC1"),
        parse_cc("|Rel == 'Owner' & Area == 'NYC'| = 2", name="CC2"),
        parse_cc("|Age <= 24 & Area == 'Chicago'| = 3", name="CC3"),
        parse_cc("|Multi == 1 & Area == 'Chicago'| = 4", name="CC4"),
    ]


@pytest.fixture(scope="session")
def paper_dcs():
    """Figure 2a's five denial constraints."""
    return [
        parse_dc("not(t1.Rel == 'Owner' & t2.Rel == 'Owner')", name="DC_OO"),
        parse_dc(
            "not(t1.Rel == 'Owner' & t2.Rel == 'Spouse' & t2.Age < t1.Age - 50)",
            name="DC_OS_low",
        ),
        parse_dc(
            "not(t1.Rel == 'Owner' & t2.Rel == 'Spouse' & t2.Age > t1.Age + 50)",
            name="DC_OS_up",
        ),
        parse_dc(
            "not(t1.Rel == 'Owner' & t1.Multi == 1 & t2.Rel == 'Child' "
            "& t2.Age < t1.Age - 50)",
            name="DC_OC_low",
        ),
        parse_dc(
            "not(t1.Rel == 'Owner' & t1.Multi == 1 & t2.Rel == 'Child' "
            "& t2.Age > t1.Age - 12)",
            name="DC_OC_up",
        ),
    ]


@pytest.fixture(scope="session")
def census_small():
    """A deterministic small census dataset shared across test modules."""
    return generate_census(CensusConfig(n_households=120, n_areas=6, seed=11))


@pytest.fixture(scope="session")
def census_good_ccs(census_small):
    return cc_family(census_small, "good", 60)


@pytest.fixture(scope="session")
def census_bad_ccs(census_small):
    return cc_family(census_small, "bad", 60)


@pytest.fixture(scope="session")
def census_all_dcs():
    return all_dcs()


def _graph_from_edges(edges, vertices=()):
    """The conflict graph over ``vertices`` plus every edge member, built
    by :func:`build_conflict_graph` with one DC per edge: row ``r`` has
    ``id == r``, and the DC for edge ``(a, b, ...)`` pins ``t1.id == a``,
    ``t2.id == b``, ...  Repeated members and repeated edges therefore
    go through the production dedup rules."""
    edges = [tuple(edge) for edge in edges]
    rows = set(vertices).union(*edges)
    relation = Relation.from_columns(
        {"id": list(range(max(rows, default=-1) + 1))}
    )
    dcs = [
        DenialConstraint(
            [UnaryAtom(var, "id", "==", v) for var, v in enumerate(edge)]
        )
        for edge in edges
        if len(edge) >= 2
    ]
    return build_conflict_graph(relation, dcs, sorted(rows))


@pytest.fixture(scope="session")
def graph_from_edges():
    """``graph_from_edges(edges, vertices=())`` — see
    :func:`_graph_from_edges`."""
    return _graph_from_edges


def _color_rows(graph, coloring, candidates, cap=None, usage=None):
    """:func:`coloring_lf` over a ``{row: color}`` dict of any hashable
    colors: returns ``(coloring, skipped rows)`` and updates ``usage``
    (``{color: rows}``) in place.

    The colors are numbered in first-seen order (candidates, then the
    pre-coloring and ``usage``), so the production loop sees the same
    candidate order on int colors and vertex positions.
    """
    palette = list(
        dict.fromkeys([*candidates, *coloring.values(), *(usage or {})])
    )
    index = {c: i for i, c in enumerate(palette)}
    rows = graph.vertices.tolist()
    color = np.asarray(
        [index[coloring[r]] if r in coloring else -1 for r in rows],
        dtype=np.int64,
    )
    counts = None if usage is None else {index[c]: n for c, n in usage.items()}
    skipped = coloring_lf(
        graph, color, [index[c] for c in candidates], cap, counts
    )
    if usage is not None:
        usage.clear()
        usage.update((palette[i], n) for i, n in counts.items())
    out = dict(coloring)
    out.update((r, palette[c]) for r, c in zip(rows, color.tolist()) if c >= 0)
    return out, [rows[i] for i in skipped]


@pytest.fixture(scope="session")
def color_rows():
    """``color_rows(graph, coloring, candidates, cap=None, usage=None)``
    — see :func:`_color_rows`."""
    return _color_rows


def _positions_of(graph, coloring):
    """A ``{row: color}`` dict as ``graph``'s per-position int colors
    (numbered in first-seen order; ``-1`` where a row is uncolored)."""
    index = {c: i for i, c in enumerate(dict.fromkeys(coloring.values()))}
    return np.asarray(
        [
            index[coloring[r]] if r in coloring else -1
            for r in graph.vertices.tolist()
        ],
        dtype=np.int64,
    )


@pytest.fixture(scope="session")
def positions_of():
    """``positions_of(graph, coloring)`` — see :func:`_positions_of`."""
    return _positions_of
