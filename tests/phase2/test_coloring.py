"""Algorithm 3 — largest-first list coloring."""

from hypothesis import given, settings, strategies as st

from repro.phase2.coloring import coloring_lf


class TestBasics:
    def test_independent_vertices_take_smallest_color(self, graph_from_edges):
        graph = graph_from_edges([], vertices=[0, 1, 2])
        coloring, skipped = coloring_lf(graph, {}, ["a", "b"])
        assert skipped == []
        assert all(c == "a" for c in coloring.values())

    def test_triangle_needs_three(self, graph_from_edges):
        graph = graph_from_edges([(0, 1), (1, 2), (0, 2)])
        coloring, skipped = coloring_lf(graph, {}, [1, 2, 3])
        assert skipped == []
        assert graph.is_proper(coloring)
        assert len(set(coloring.values())) == 3

    def test_triangle_with_two_colors_skips_one(self, graph_from_edges):
        graph = graph_from_edges([(0, 1), (1, 2), (0, 2)])
        coloring, skipped = coloring_lf(graph, {}, [1, 2])
        assert len(skipped) == 1
        assert graph.is_proper(coloring)

    def test_example_5_3_shape(self, graph_from_edges):
        """Figure 7's Chicago component: owners 1-4 pairwise conflicting."""
        # vertices 0..6 = pids 1..7; owners are 0,1,2,3
        owner_edges = [(a, b) for a in range(4) for b in range(4) if a < b]
        graph = graph_from_edges(owner_edges, vertices=range(7))
        coloring, skipped = coloring_lf(graph, {}, [1, 2, 3, 4])
        assert skipped == []
        assert len({coloring[v] for v in range(4)}) == 4  # owners distinct

    def test_respects_existing_coloring(self, graph_from_edges):
        graph = graph_from_edges([(0, 1)])
        coloring, skipped = coloring_lf(graph, {0: "a"}, ["a", "b"])
        assert coloring[0] == "a"  # untouched
        assert coloring[1] == "b"

    def test_degree_order_high_first(self, graph_from_edges):
        # star: center has degree 3 and must be colored first
        graph = graph_from_edges([(0, 1), (0, 2), (0, 3)])
        coloring, skipped = coloring_lf(graph, {}, ["a", "b"])
        assert coloring[0] == "a"
        assert all(coloring[v] == "b" for v in (1, 2, 3))


class TestHyperedges:
    def test_forbidden_only_when_all_others_share(self, graph_from_edges):
        graph = graph_from_edges([(0, 1, 2)])
        # color 1 and 2 differently: vertex 0 may take either color
        coloring, skipped = coloring_lf(graph, {1: "a", 2: "b"}, ["a", "b"])
        assert coloring[0] == "a"
        # color 1 and 2 the same: that color is forbidden for 0
        coloring, skipped = coloring_lf(graph, {1: "a", 2: "a"}, ["a", "b"])
        assert coloring[0] == "b"


class TestCandidateLists:
    def test_per_vertex_lists(self, graph_from_edges):
        graph = graph_from_edges([(0, 1)])
        coloring, skipped = coloring_lf(
            graph, {}, [], candidate_lists={0: ["x"], 1: ["x", "y"]}
        )
        assert coloring == {0: "x", 1: "y"}

    def test_empty_list_skips(self, graph_from_edges):
        graph = graph_from_edges([], vertices=[5])
        coloring, skipped = coloring_lf(graph, {}, [])
        assert skipped == [5]


class TestProperColoringProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 10),
        data=st.data(),
    )
    def test_output_is_always_proper(self, graph_from_edges, n, data):
        edges = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=20,
            )
        )
        graph = graph_from_edges(edges, vertices=range(n))
        num_colors = data.draw(st.integers(1, n))
        coloring, skipped = coloring_lf(graph, {}, list(range(num_colors)))
        assert graph.is_proper(coloring)
        # Skipped vertices are exactly the uncolored ones.
        assert set(skipped) == set(graph.vertices.tolist()) - set(coloring)
