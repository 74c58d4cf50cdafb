"""Backend parity: protocols produce identical results on every backend.

An alternative graph backend (csr) is only admissible if it is
*observationally equivalent* to the reference dict-of-sets graph: same
colorings, same transcripts (bits and rounds), on the same instances,
under the same seeds.  These tests run the full protocol stack on
converted copies of one instance and compare everything.
"""

from __future__ import annotations

import random

import pytest

from repro.coloring import (
    fournier_edge_coloring,
    greedy_edge_coloring,
    greedy_vertex_coloring,
    vizing_edge_coloring,
)
from repro.core import (
    run_edge_coloring,
    run_vertex_coloring,
    run_zero_comm_edge_coloring,
)
from repro.graphs import (
    PARTITIONERS,
    as_backend,
    barbell_of_stars,
    caterpillar_graph,
    complete_bipartite,
    complete_graph,
    configuration_model_graph,
    cycle_graph,
    disjoint_union,
    gnp_random_graph,
    gnp_with_max_degree,
    grid_graph,
    hypercube_graph,
    partition_random,
    path_graph,
    power_law_degree_sequence,
    random_bipartite_regular,
    random_regular_graph,
    star_graph,
)


#: Every non-reference backend must match the reference "set" graph.
ALT_BACKENDS = ("csr",)


def _pair(graph, rng, backend):
    part = partition_random(graph, rng)
    return part, part.astype(backend)


WORKLOADS = [
    ("regular-64-8", lambda rng: random_regular_graph(64, 8, rng)),
    ("gnp-48", lambda rng: gnp_random_graph(48, 0.15, rng)),
    ("grid-8x8", lambda rng: grid_graph(8, 8)),
    ("hypercube-5", lambda rng: hypercube_graph(5)),
    # Degree-skewed and structured families: high-degree hubs next to
    # leaves, isolated vertices and complete cores are where the CSR
    # row layout diverges most from the dict-of-sets reference.
    ("power-law-80", lambda rng: configuration_model_graph(
        power_law_degree_sequence(80, 2.2, 20, rng), rng)),
    ("gnp-capped-60", lambda rng: gnp_with_max_degree(60, 0.2, 6, rng)),
    ("star-24", lambda rng: star_graph(24)),
    ("path-30", lambda rng: path_graph(30)),
    ("cycle-31", lambda rng: cycle_graph(31)),
    ("complete-16", lambda rng: complete_graph(16)),
    ("bipartite-6x9", lambda rng: complete_bipartite(6, 9)),
    ("bipartite-regular-20-5", lambda rng: random_bipartite_regular(20, 5, rng)),
    ("caterpillar-10x3", lambda rng: caterpillar_graph(10, 3)),
    ("barbell-stars-4x6", lambda rng: barbell_of_stars(4, 6)),
    ("union-with-isolated", lambda rng: disjoint_union(
        [grid_graph(4, 4), star_graph(8), path_graph(1), path_graph(1)])),
]


@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize("name,builder", WORKLOADS)
def test_vertex_coloring_parity(name, builder, backend):
    rng = random.Random(11)
    part, bpart = _pair(builder(rng), rng, backend)
    a = run_vertex_coloring(part, seed=3)
    b = run_vertex_coloring(bpart, seed=3)
    assert a.colors == b.colors
    assert a.total_bits == b.total_bits
    assert a.rounds == b.rounds
    assert a.leftover_size == b.leftover_size


@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize("name,builder", WORKLOADS)
def test_edge_coloring_parity(name, builder, backend):
    rng = random.Random(22)
    part, bpart = _pair(builder(rng), rng, backend)
    a = run_edge_coloring(part)
    b = run_edge_coloring(bpart)
    assert a.colors == b.colors
    assert a.total_bits == b.total_bits
    assert a.rounds == b.rounds


@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize("name,builder", WORKLOADS)
def test_zero_comm_parity(name, builder, backend):
    rng = random.Random(33)
    part, bpart = _pair(builder(rng), rng, backend)
    a = run_zero_comm_edge_coloring(part)
    b = run_zero_comm_edge_coloring(bpart)
    assert a.colors == b.colors
    assert a.total_bits == 0 and b.total_bits == 0


@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize("scheme", sorted(PARTITIONERS))
def test_partitioner_parity(scheme, backend):
    """Partitioners must produce the same edge split on every backend.

    This pins the sorted-``edges()`` contract: partition_random draws one
    public coin per edge in iteration order.
    """
    graph = random_regular_graph(40, 6, random.Random(7))
    alt_graph = as_backend(graph, backend)
    a = PARTITIONERS[scheme](graph, random.Random(99))
    b = PARTITIONERS[scheme](alt_graph, random.Random(99))
    assert set(a.alice_edges) == set(b.alice_edges)


@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize("scheme", sorted(PARTITIONERS))
def test_partitioner_parity_on_skewed_degrees(scheme, backend):
    """Same split on a power-law graph, where degree-driven schemes
    (degree_split, crossing) see unequal endpoint degrees on most edges.
    Each party's local graph must also list its edges in the same order."""
    rng = random.Random(8)
    graph = configuration_model_graph(
        power_law_degree_sequence(60, 2.0, 15, rng), rng
    )
    alt_graph = as_backend(graph, backend)
    a = PARTITIONERS[scheme](graph, random.Random(101))
    b = PARTITIONERS[scheme](alt_graph, random.Random(101))
    assert a.alice_edges == b.alice_edges
    assert a.bob_edges == b.bob_edges
    assert a.alice_graph.edge_list() == b.alice_graph.edge_list()
    assert a.bob_graph.edge_list() == b.bob_graph.edge_list()


@pytest.mark.parametrize("backend", ALT_BACKENDS)
def test_local_coloring_algorithms_parity(backend):
    rng = random.Random(44)
    graph = gnp_random_graph(40, 0.2, rng)
    alt_graph = as_backend(graph, backend)

    assert greedy_vertex_coloring(graph) == greedy_vertex_coloring(alt_graph)
    assert greedy_edge_coloring(graph) == greedy_edge_coloring(alt_graph)
    assert vizing_edge_coloring(graph) == vizing_edge_coloring(alt_graph)

    # Fournier needs independent max-degree vertices.
    from .conftest import make_fournier_instance

    instance = make_fournier_instance(30, 0.25, random.Random(55))
    assert fournier_edge_coloring(instance) == fournier_edge_coloring(
        as_backend(instance, backend)
    )
