"""The CSR conflict graph and its colorings against the frozenset reference.

:mod:`conflict_reference` keeps the pre-CSR hypergraph and its three
largest-first loops.  Random relations, DC sets (binary and ternary,
``in`` atoms, offsets, asymmetric roles), shuffled row sets,
pre-colorings, candidate lists, caps and penalties must give the same
edges and degrees and the same ``(coloring, skipped)`` from
:func:`coloring_lf`, :func:`capacity_coloring` and
:func:`soft_capacity_coloring`.
"""

import math

from conflict_reference import (
    reference_capacity_coloring,
    reference_coloring_lf,
    reference_graph,
    reference_soft_capacity_coloring,
)
from hypothesis import given, settings, strategies as st

from repro.constraints.dc import BinaryAtom, DenialConstraint, UnaryAtom
from repro.extensions.capacity import capacity_coloring
from repro.extensions.soft_capacity import soft_capacity_coloring
from repro.phase2.coloring import coloring_lf
from repro.phase2.edges import build_conflict_graph
from repro.relational.relation import Relation

INT_ATTRS = ("A", "B")
OPS = ("==", "!=", "<", ">", "<=", ">=")
LABELS = ("x", "y", "z")
PALETTE = (1, 2, 3, 4, 5)


@st.composite
def _unary(draw, var):
    if draw(st.booleans()):
        op = draw(st.sampled_from(("==", "!=", "in")))
        if op == "in":
            value = tuple(draw(st.sets(st.sampled_from(LABELS), max_size=2)))
        else:
            value = draw(st.sampled_from(LABELS))
        return UnaryAtom(var, "L", op, value)
    attr = draw(st.sampled_from(INT_ATTRS))
    op = draw(st.sampled_from(OPS + ("in",)))
    if op == "in":
        value = tuple(draw(st.sets(st.integers(0, 4), max_size=3)))
    else:
        value = draw(st.integers(0, 4))
    return UnaryAtom(var, attr, op, value)


@st.composite
def _binary(draw, arity):
    left = draw(st.integers(0, arity - 1))
    right = draw(st.integers(0, arity - 1))
    if draw(st.integers(0, 3)) == 0:
        op = draw(st.sampled_from(("==", "!=")))
        return BinaryAtom(left, "L", op, right, "L")
    return BinaryAtom(
        left,
        draw(st.sampled_from(INT_ATTRS)),
        draw(st.sampled_from(OPS)),
        right,
        draw(st.sampled_from(INT_ATTRS)),
        draw(st.integers(-2, 2)),
    )


@st.composite
def _dc(draw):
    arity = draw(st.sampled_from((2, 2, 3)))
    atoms = []
    for var in range(arity):
        atoms += draw(st.lists(_unary(var), max_size=2))
    atoms += draw(st.lists(_binary(arity), max_size=2))
    return DenialConstraint(atoms, arity=arity)


@st.composite
def _instance(draw):
    n = draw(st.integers(1, 9))
    relation = Relation.from_columns(
        {
            "A": draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)),
            "B": draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)),
            "L": draw(
                st.lists(st.sampled_from(LABELS), min_size=n, max_size=n)
            ),
        }
    )
    dcs = draw(st.lists(_dc(), max_size=3))
    # Shuffled, possibly repeated, possibly empty.
    rows = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    return relation, dcs, rows


def _pre_coloring(draw, vertices):
    colored = draw(st.lists(st.sampled_from(vertices), unique=True))
    return {v: draw(st.sampled_from(PALETTE)) for v in colored}


def _candidates(draw):
    return draw(st.lists(st.sampled_from(PALETTE), unique=True))


@settings(max_examples=150, deadline=None)
@given(instance=_instance(), data=st.data())
def test_graph_and_colorings_match_reference(instance, data):
    relation, dcs, rows = instance
    graph = build_conflict_graph(relation, dcs, rows)
    ref = reference_graph(relation, dcs, rows)

    vertices = graph.vertices.tolist()
    assert vertices == ref.vertices
    assert {frozenset(e) for e in graph.edges} == set(ref.edges)
    assert graph.num_edges == ref.num_edges == len(graph.edges)
    assert [graph.degree(v) for v in vertices] == [
        ref.degree(v) for v in vertices
    ]
    assert graph.degrees.tolist() == [ref.degree(v) for v in vertices]
    if not vertices:
        return

    pre = _pre_coloring(data.draw, vertices)
    candidates = _candidates(data.draw)
    lists = None
    if data.draw(st.booleans()):
        listed = data.draw(st.lists(st.sampled_from(vertices), unique=True))
        lists = {v: _candidates(data.draw) for v in listed}

    def same(run_new, run_ref):
        new_coloring, new_skipped = run_new(dict(pre))
        ref_coloring, ref_skipped = run_ref(dict(pre))
        assert list(new_coloring.items()) == list(ref_coloring.items())
        assert new_skipped == ref_skipped

    same(
        lambda col: coloring_lf(graph, col, candidates, lists),
        lambda col: reference_coloring_lf(ref, col, candidates, lists),
    )

    cap = data.draw(st.integers(1, 3))
    usage = {
        c: data.draw(st.integers(0, 3))
        for c in data.draw(st.lists(st.sampled_from(PALETTE), unique=True))
    }
    new_usage, ref_usage = dict(usage), dict(usage)
    same(
        lambda col: capacity_coloring(graph, candidates, cap, col, new_usage),
        lambda col: reference_capacity_coloring(
            ref, candidates, cap, col, ref_usage
        ),
    )
    assert new_usage == ref_usage

    penalty = data.draw(st.sampled_from((0.5, 1.0, 2.0, math.inf)))
    new_tuple_cost = data.draw(st.sampled_from((0.0, 1.0, 2.5, math.inf)))
    new_usage, ref_usage = dict(usage), dict(usage)
    same(
        lambda col: soft_capacity_coloring(
            graph, candidates, cap, penalty, new_tuple_cost, col, new_usage
        ),
        lambda col: reference_soft_capacity_coloring(
            ref, candidates, cap, penalty, new_tuple_cost, col, ref_usage
        ),
    )
    assert new_usage == ref_usage
