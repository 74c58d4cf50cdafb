"""The graph backend contract, checked on every registered backend.

The protocols only read each party's local graph through the methods
below, so any backend in ``GRAPH_BACKENDS`` must answer them the same
way as the dict-of-sets reference.  Each test runs once per backend;
the randomized mirror drives every non-reference backend through one
mutation sequence alongside a reference ``Graph``.
"""

from __future__ import annotations

import random

import pytest

from repro.graphs import GRAPH_BACKENDS, Graph, as_backend, gnp_random_graph

BACKENDS = sorted(GRAPH_BACKENDS)
ALT_BACKENDS = [name for name in BACKENDS if GRAPH_BACKENDS[name] is not Graph]


def _build(backend, n, edges=()):
    return GRAPH_BACKENDS[backend](n, edges)


@pytest.mark.parametrize("backend", BACKENDS)
def test_basic_construction_and_queries(backend):
    g = _build(backend, 5, [(0, 1), (1, 2), (3, 4)])
    assert type(g) is GRAPH_BACKENDS[backend]
    assert g.n == 5 and g.m == 3
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.neighbors(1) == {0, 2}
    assert list(g.iter_neighbors(1)) == [0, 2]
    assert g.degrees() == [1, 2, 1, 1, 1]
    assert g.max_degree() == 2
    assert g.edge_list() == [(0, 1), (1, 2), (3, 4)]
    assert list(g.vertices()) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_graph(backend):
    g = _build(backend, 0)
    assert g.m == 0 and g.max_degree() == 0
    assert g.degrees() == [] and g.edge_list() == []
    isolated = _build(backend, 3)
    assert isolated.max_degree() == 0
    assert isolated.is_independent_set(range(3))


@pytest.mark.parametrize("backend", BACKENDS)
def test_add_remove_edge_contract(backend):
    g = _build(backend, 3)
    assert g.add_edge(0, 1) is True
    assert g.add_edge(1, 0) is False  # already present
    with pytest.raises(ValueError):
        g.add_edge(0, 0)
    with pytest.raises(ValueError):
        g.add_edge(0, 3)
    g.remove_edge(0, 1)
    assert g.m == 0
    with pytest.raises(KeyError):
        g.remove_edge(0, 1)


@pytest.mark.parametrize("backend", BACKENDS)
def test_neighbor_colors(backend):
    g = _build(backend, 5, [(0, 1), (0, 2), (0, 3)])
    assert g.neighbor_colors(0, {1: 7, 3: 9}) == {7, 9}
    assert g.neighbor_colors(0, {1: 7, 2: 7}) == {7}
    assert g.neighbor_colors(4, {0: 1}) == set()


@pytest.mark.parametrize("backend", BACKENDS)
def test_is_independent_set(backend):
    g = _build(backend, 5, [(0, 1), (2, 3)])
    assert g.is_independent_set([0, 2, 4]) is True
    assert g.is_independent_set([0, 1]) is False
    assert g.is_independent_set([]) is True


@pytest.mark.parametrize("backend", BACKENDS)
def test_induced_subgraph_keeps_vertex_range(backend):
    g = _build(backend, 6, [(0, 1), (1, 2), (2, 3), (4, 5)])
    sub = g.induced_subgraph([1, 2, 3, 4])
    assert type(sub) is type(g)
    assert sub.n == 6 and sub.m == 2
    assert sub.edge_list() == [(1, 2), (2, 3)]
    assert sub.degrees() == [0, 1, 2, 1, 0, 0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_pack_and_neighbors_in(backend):
    g = _build(backend, 8, [(0, 1), (0, 2), (0, 5), (3, 4)])
    packed = g.pack_vertices([1, 5, 7])
    assert isinstance(packed, frozenset)
    assert g.neighbors_in(0, packed) == [1, 5]
    assert g.neighbors_in(3, packed) == []
    assert g.has_neighbor_in(0, packed) and not g.has_neighbor_in(3, packed)
    # An edge added after construction is visible to the packed probes.
    g.add_edge(3, 7)
    assert g.neighbors_in(3, packed) == [7]
    assert g.has_neighbor_in(3, packed)


@pytest.mark.parametrize("backend", BACKENDS)
def test_degrees_track_mutation_and_return_a_copy(backend):
    """A stale degree or Δ after mutation would corrupt Δ-dependent palettes."""
    g = _build(backend, 5, [(0, 1), (1, 2)])
    assert g.degrees() == [1, 2, 1, 0, 0]
    assert g.max_degree() == 2
    g.add_edge(1, 3)
    g.add_edge(1, 4)
    assert g.degrees() == [1, 4, 1, 1, 1]
    assert g.max_degree() == 4
    g.remove_edge(1, 2)
    assert g.degrees() == [1, 3, 0, 1, 1]
    assert g.max_degree() == 3
    leaked = g.degrees()
    leaked[0] = 99
    assert g.degrees()[0] == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_copy_is_independent(backend):
    g = _build(backend, 5, [(0, 1), (2, 3)])
    assert g.max_degree() == 1
    clone = g.copy()
    assert type(clone) is type(g) and clone == g
    clone.remove_edge(0, 1)
    clone.add_edge(2, 4)
    assert g.has_edge(0, 1) and not clone.has_edge(0, 1)
    assert g.m == 2 and clone.m == 2
    assert g.max_degree() == 1 and clone.max_degree() == 2
    assert g.degree(2) == 1 and clone.degree(2) == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_union_and_subgraph_edges_preserve_backend(backend):
    a = _build(backend, 4, [(0, 1)])
    b = _build(backend, 4, [(2, 3), (0, 1)])
    merged = a.union(b)
    assert type(merged) is type(a)
    assert merged.edge_list() == [(0, 1), (2, 3)]
    assert a.edge_list() == [(0, 1)]  # the union does not mutate its inputs
    sub = merged.subgraph_edges([(1, 0)])
    assert type(sub) is type(a) and sub.edge_list() == [(0, 1)]
    with pytest.raises(ValueError, match="vertex-set mismatch"):
        a.union(_build(backend, 5))


@pytest.mark.parametrize("backend", BACKENDS)
def test_equality_and_conversion_across_backends(backend):
    edges = [(0, 1), (1, 2), (0, 3)]
    g = _build(backend, 4, edges)
    for other in BACKENDS:
        h = as_backend(g, other)
        assert type(h) is GRAPH_BACKENDS[other]
        assert h == g and g == h
        assert h.edge_list() == g.edge_list()
    assert g != _build(backend, 4, edges[:2])
    assert g != _build(backend, 5, edges)


@pytest.mark.parametrize("backend", ALT_BACKENDS)
def test_randomized_operation_mirror(backend):
    """Every query agrees with the reference after any operation mix."""
    rng = random.Random(0xB175E7)
    for _ in range(10):
        n = rng.randint(1, 30)
        ref = gnp_random_graph(n, rng.random() * 0.6, rng)
        alt = as_backend(ref, backend)
        for _ in range(30):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            if rng.random() < 0.5:
                assert ref.add_edge(u, v) == alt.add_edge(u, v)
            elif ref.has_edge(u, v):
                ref.remove_edge(u, v)
                alt.remove_edge(u, v)
        assert alt == ref
        assert alt.m == ref.m
        assert alt.degrees() == ref.degrees()
        assert alt.max_degree() == ref.max_degree()
        assert list(alt.edges()) == list(ref.edges())
        sample = [v for v in range(n) if rng.random() < 0.5]
        assert alt.is_independent_set(sample) == ref.is_independent_set(sample)
        assert alt.induced_subgraph(sample) == ref.induced_subgraph(sample)
        coloring = {v: rng.randrange(4) for v in sample}
        packed_alt = alt.pack_vertices(sample)
        packed_ref = ref.pack_vertices(sample)
        for v in range(n):
            assert list(alt.iter_neighbors(v)) == list(ref.iter_neighbors(v))
            assert alt.neighbors(v) == ref.neighbors(v)
            assert alt.neighbors_in(v, packed_alt) == ref.neighbors_in(v, packed_ref)
            assert alt.neighbor_colors(v, coloring) == ref.neighbor_colors(
                v, coloring
            )
