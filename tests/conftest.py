"""Shared fixtures: the paper's running example, a small census dataset
and conflict graphs with hand-picked edges."""

from __future__ import annotations

import pytest

from repro import Relation, parse_cc, parse_dc
from repro.constraints.dc import DenialConstraint, UnaryAtom
from repro.datagen import CensusConfig, all_dcs, cc_family, generate_census
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
