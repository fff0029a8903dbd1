"""Conflict hypergraph structure, built by ``build_conflict_graph``.

Colorings are per-position int arrays; ``positions_of`` (``tests/
conftest.py``) turns a ``{row: color}`` dict into one.
"""

from repro import Relation, parse_dc
from repro.phase2.edges import build_conflict_graph


class TestConstruction:
    def test_over_vertices(self, graph_from_edges):
        graph = graph_from_edges([], vertices=[1, 2, 3])
        assert graph.num_vertices == 3
        assert graph.num_edges == 0

    def test_edges_stay_inside_the_given_rows(self):
        owners = Relation.from_columns({"Rel": ["Owner"] * 4})
        dc = parse_dc("not(t1.Rel == 'Owner' & t2.Rel == 'Owner')")
        graph = build_conflict_graph(owners, [dc], [3, 1])
        assert graph.vertices.tolist() == [1, 3]
        assert graph.edges == [(1, 3)]

    def test_duplicate_edge_ignored(self, graph_from_edges):
        graph = graph_from_edges([(1, 2), (2, 1), (1, 2)])
        assert graph.num_edges == 1
        assert graph.degree(1) == graph.degree(2) == 1

    def test_degenerate_edge_rejected(self, graph_from_edges):
        graph = graph_from_edges([(1, 1), (2, 2, 3)], vertices=[1, 2, 3])
        assert graph.num_edges == 0
        assert graph.degrees.tolist() == [0, 0, 0]

    def test_hyperedge(self, graph_from_edges):
        graph = graph_from_edges([(1, 2, 3), (3, 1, 2)])
        assert graph.edges == [(1, 2, 3)]
        assert graph.degree(1) == 1


class TestQueries:
    def test_degree_and_incidence(self, graph_from_edges):
        graph = graph_from_edges([(1, 2), (1, 3), (2, 3)])
        assert graph.degree(1) == 2
        start, stop = graph.indptr[0], graph.indptr[1]
        assert graph.vertices[graph.indices[start:stop]].tolist() == [2, 3]
        assert graph.degree(99) == 0

    def test_order_is_degree_then_row(self, graph_from_edges, positions_of):
        graph = graph_from_edges([(4, 1), (4, 2), (1, 2, 3)], vertices=[0])
        rows = graph.vertices.tolist()
        order = graph.order(positions_of(graph, {}))
        assert [rows[i] for i in order] == [1, 2, 4, 3, 0]
        order = graph.order(positions_of(graph, {1: "a", 0: "b"}))
        assert [rows[i] for i in order] == [2, 4, 3]

    def test_forbidden_binary_and_hyperedge(self, graph_from_edges):
        graph = graph_from_edges([(1, 2), (1, 3, 4)])
        # Rows 1..4 sit at positions 0..3; colors a, b, c are 0, 1, 2.
        assert graph.forbidden(0, [-1, -1, -1, -1]) == set()
        assert graph.forbidden(0, [-1, 0, 1, 2]) == {0}
        assert graph.forbidden(0, [-1, 0, 1, 1]) == {0, 1}
        # A hyperedge with an uncolored other member forbids nothing.
        assert graph.forbidden(0, [-1, -1, 1, -1]) == set()

    def test_is_proper_binary(self, graph_from_edges, positions_of):
        graph = graph_from_edges([(1, 2)])
        assert graph.is_proper(positions_of(graph, {1: "a", 2: "b"}))
        assert not graph.is_proper(positions_of(graph, {1: "a", 2: "a"}))

    def test_is_proper_hyperedge_needs_two_colors(
        self, graph_from_edges, positions_of
    ):
        graph = graph_from_edges([(1, 2, 3)])
        assert graph.is_proper(positions_of(graph, {1: "a", 2: "a", 3: "b"}))
        assert not graph.is_proper(
            positions_of(graph, {1: "a", 2: "a", 3: "a"})
        )

    def test_uncolored_vertices_do_not_violate(
        self, graph_from_edges, positions_of
    ):
        graph = graph_from_edges([(1, 2)])
        assert graph.is_proper(positions_of(graph, {1: "a"}))
