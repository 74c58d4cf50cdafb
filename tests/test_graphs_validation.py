"""Tests for the coloring validators."""

from __future__ import annotations

import pytest

from repro.graphs import (
    GRAPH_BACKENDS,
    Graph,
    as_backend,
    assert_proper_edge_coloring,
    assert_proper_vertex_coloring,
    cycle_graph,
    is_proper_edge_coloring,
    is_proper_list_coloring,
    is_proper_vertex_coloring,
    vertex_coloring_conflicts,
)


@pytest.fixture(params=sorted(GRAPH_BACKENDS))
def build(request):
    """Put a test graph on each backend in turn (the edge scan walks rows)."""
    return lambda graph: as_backend(graph, request.param)


class TestVertexValidation:
    def test_accepts_proper(self, build):
        g = build(cycle_graph(4))
        assert is_proper_vertex_coloring(g, {0: 1, 1: 2, 2: 1, 3: 2}, 3)

    def test_rejects_monochromatic_edge(self, build):
        g = build(cycle_graph(4))
        colors = {0: 1, 1: 1, 2: 2, 3: 2}
        assert not is_proper_vertex_coloring(g, colors)
        assert (0, 1) in vertex_coloring_conflicts(g, colors)

    def test_rejects_uncolored_vertex(self, build):
        g = build(cycle_graph(4))
        assert not is_proper_vertex_coloring(g, {0: 1, 1: 2, 2: 1})

    def test_rejects_out_of_palette(self, build):
        g = build(cycle_graph(4))
        colors = {0: 1, 1: 2, 2: 1, 3: 99}
        assert not is_proper_vertex_coloring(g, colors, num_colors=3)
        assert is_proper_vertex_coloring(g, colors)  # no palette constraint

    def test_sequence_colors_supported(self, build):
        g = build(cycle_graph(4))
        assert is_proper_vertex_coloring(g, [1, 2, 1, 2], 2)

    def test_assert_gives_diagnostics(self, build):
        g = build(cycle_graph(4))
        with pytest.raises(AssertionError, match="uncolored"):
            assert_proper_vertex_coloring(g, {0: 1})
        with pytest.raises(AssertionError, match="monochromatic"):
            assert_proper_vertex_coloring(g, {0: 1, 1: 1, 2: 2, 3: 2})
        with pytest.raises(AssertionError, match="palette"):
            assert_proper_vertex_coloring(g, {0: 1, 1: 2, 2: 1, 3: 4}, 3)

    def test_partial_coloring_conflicts_ignores_uncolored(self, build):
        g = build(cycle_graph(4))
        assert vertex_coloring_conflicts(g, {0: 1, 2: 1}) == []


class TestEdgeValidation:
    def test_accepts_proper(self, build):
        g = build(cycle_graph(4))
        colors = {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2}
        assert is_proper_edge_coloring(g, colors, 3)

    def test_accepts_non_canonical_keys(self, build):
        g = build(Graph(3, [(0, 1), (1, 2)]))
        assert is_proper_edge_coloring(g, {(1, 0): 1, (2, 1): 2})

    def test_rejects_shared_color_at_vertex(self, build):
        g = build(Graph(3, [(0, 1), (1, 2)]))
        with pytest.raises(AssertionError, match="share color"):
            assert_proper_edge_coloring(g, {(0, 1): 1, (1, 2): 1})

    def test_rejects_uncolored_edge(self, build):
        g = build(Graph(3, [(0, 1), (1, 2)]))
        with pytest.raises(AssertionError, match="uncolored"):
            assert_proper_edge_coloring(g, {(0, 1): 1})

    def test_rejects_out_of_palette(self, build):
        g = build(Graph(2, [(0, 1)]))
        with pytest.raises(AssertionError, match="palette"):
            assert_proper_edge_coloring(g, {(0, 1): 5}, num_colors=3)


class TestListValidation:
    def test_accepts_list_respecting_coloring(self):
        g = Graph(2, [(0, 1)])
        assert is_proper_list_coloring(g, {0: 1, 1: 2}, {0: {1}, 1: {2}})

    def test_rejects_color_outside_list(self):
        g = Graph(2, [(0, 1)])
        assert not is_proper_list_coloring(g, {0: 1, 1: 2}, {0: {3}, 1: {2}})

    def test_rejects_conflict(self):
        g = Graph(2, [(0, 1)])
        assert not is_proper_list_coloring(g, {0: 1, 1: 1}, {0: {1}, 1: {1}})

    def test_rejects_missing_vertex(self):
        g = Graph(2, [(0, 1)])
        assert not is_proper_list_coloring(g, {0: 1}, {0: {1}, 1: {2}})
