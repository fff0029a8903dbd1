"""Algorithm 3 — largest-first list coloring.

The tests color by row id with string colors through the ``color_rows``
adapter (``tests/conftest.py``), which runs :func:`coloring_lf` on int
colors and vertex positions.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.phase2.coloring import coloring_lf


class TestBasics:
    def test_independent_vertices_take_smallest_color(
        self, graph_from_edges, color_rows
    ):
        graph = graph_from_edges([], vertices=[0, 1, 2])
        coloring, skipped = color_rows(graph, {}, ["a", "b"])
        assert skipped == []
        assert all(c == "a" for c in coloring.values())

    def test_triangle_needs_three(
        self, graph_from_edges, color_rows, positions_of
    ):
        graph = graph_from_edges([(0, 1), (1, 2), (0, 2)])
        coloring, skipped = color_rows(graph, {}, [1, 2, 3])
        assert skipped == []
        assert graph.is_proper(positions_of(graph, coloring))
        assert len(set(coloring.values())) == 3

    def test_triangle_with_two_colors_skips_one(
        self, graph_from_edges, color_rows, positions_of
    ):
        graph = graph_from_edges([(0, 1), (1, 2), (0, 2)])
        coloring, skipped = color_rows(graph, {}, [1, 2])
        assert len(skipped) == 1
        assert graph.is_proper(positions_of(graph, coloring))

    def test_example_5_3_shape(self, graph_from_edges, color_rows):
        """Figure 7's Chicago component: owners 1-4 pairwise conflicting."""
        # vertices 0..6 = pids 1..7; owners are 0,1,2,3
        owner_edges = [(a, b) for a in range(4) for b in range(4) if a < b]
        graph = graph_from_edges(owner_edges, vertices=range(7))
        coloring, skipped = color_rows(graph, {}, [1, 2, 3, 4])
        assert skipped == []
        assert len({coloring[v] for v in range(4)}) == 4  # owners distinct

    def test_respects_existing_coloring(self, graph_from_edges, color_rows):
        graph = graph_from_edges([(0, 1)])
        coloring, skipped = color_rows(graph, {0: "a"}, ["a", "b"])
        assert coloring[0] == "a"  # untouched
        assert coloring[1] == "b"

    def test_degree_order_high_first(self, graph_from_edges, color_rows):
        # star: center has degree 3 and must be colored first
        graph = graph_from_edges([(0, 1), (0, 2), (0, 3)])
        coloring, skipped = color_rows(graph, {}, ["a", "b"])
        assert coloring[0] == "a"
        assert all(coloring[v] == "b" for v in (1, 2, 3))


class TestHyperedges:
    def test_forbidden_only_when_all_others_share(
        self, graph_from_edges, color_rows
    ):
        graph = graph_from_edges([(0, 1, 2)])
        # color 1 and 2 differently: vertex 0 may take either color
        coloring, skipped = color_rows(graph, {1: "a", 2: "b"}, ["a", "b"])
        assert coloring[0] == "a"
        # color 1 and 2 the same: that color is forbidden for 0
        coloring, skipped = color_rows(graph, {1: "a", 2: "a"}, ["a", "b"])
        assert coloring[0] == "b"


class TestCandidateLists:
    def test_empty_list_skips(self, graph_from_edges):
        graph = graph_from_edges([], vertices=[5])
        color = np.full(1, -1)
        assert coloring_lf(graph, color, []) == [0]
        assert color.tolist() == [-1]


class TestProperColoringProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 10),
        data=st.data(),
    )
    def test_output_is_always_proper(
        self, graph_from_edges, color_rows, positions_of, n, data
    ):
        edges = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=20,
            )
        )
        graph = graph_from_edges(edges, vertices=range(n))
        num_colors = data.draw(st.integers(1, n))
        coloring, skipped = color_rows(graph, {}, list(range(num_colors)))
        assert graph.is_proper(positions_of(graph, coloring))
        # Skipped vertices are exactly the uncolored ones.
        assert set(skipped) == set(graph.vertices.tolist()) - set(coloring)
