"""Edge partitions between Alice and Bob, with adversarial partitioners.

The model (Section 3.1): the vertex set, ``n`` and ``Δ`` are common
knowledge; the edge set is partitioned *adversarially* between the parties.
:class:`EdgePartition` captures one such split and provides each party's
local view (adjacency, degrees).  The partitioner zoo covers the regimes the
experiments ablate over — balanced random splits, fully lopsided splits, and
splits engineered to maximize cross-party coordination.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from ..rand import RandomSource, as_random
from .csr import as_backend
from .graph import Edge, Graph, canonical_edge

__all__ = [
    "EdgePartition",
    "PARTITIONERS",
    "partition_all_alice",
    "partition_all_bob",
    "partition_alternating",
    "partition_by_hash",
    "partition_crossing",
    "partition_degree_split",
    "partition_random",
]


class EdgePartition:
    """A two-party split of a graph's edges.

    Exposes, for each party, exactly the information the model grants them:
    their own edge set (and derived adjacency/degrees) plus the public
    parameters ``n`` and ``Δ`` of the *whole* graph.
    """

    def __init__(self, graph: Graph, alice_edges: Iterable[Edge]) -> None:
        self.graph = graph
        alice = {canonical_edge(u, v) for u, v in alice_edges}
        all_edges = set(graph.edges())
        if not alice <= all_edges:
            extra = sorted(alice - all_edges)[:3]
            raise ValueError(f"alice edges not in graph, e.g. {extra}")
        self.alice_edges = frozenset(alice)
        self.bob_edges = frozenset(all_edges - alice)
        self.alice_graph = graph.subgraph_edges(self.alice_edges)
        self.bob_graph = graph.subgraph_edges(self.bob_edges)

    @property
    def n(self) -> int:
        """Number of vertices (public knowledge)."""
        return self.graph.n

    @property
    def max_degree(self) -> int:
        """Δ of the whole graph (public knowledge)."""
        return self.graph.max_degree()

    def side_graph(self, party: str) -> Graph:
        """The local graph of ``"alice"`` or ``"bob"``."""
        if party == "alice":
            return self.alice_graph
        if party == "bob":
            return self.bob_graph
        raise ValueError(f"unknown party {party!r}")

    def astype(self, backend: str) -> "EdgePartition":
        """This partition with its graphs converted to ``backend``.

        The edge split is carried over verbatim, so the converted partition
        describes the *same* protocol instance — only the adjacency
        representation changes.  Returns ``self`` when already there.
        """
        converted = as_backend(self.graph, backend)
        if converted is self.graph:
            return self
        return EdgePartition(converted, self.alice_edges)

    def owner(self, u: int, v: int) -> str:
        """Which party holds edge ``{u, v}``."""
        edge = canonical_edge(u, v)
        if edge in self.alice_edges:
            return "alice"
        if edge in self.bob_edges:
            return "bob"
        raise KeyError(f"edge {edge} not in graph")

    def __repr__(self) -> str:
        return (
            f"EdgePartition(n={self.n}, alice={len(self.alice_edges)}, "
            f"bob={len(self.bob_edges)})"
        )


def partition_random(graph: Graph, rng: RandomSource, p_alice: float = 0.5) -> EdgePartition:
    """Assign each edge to Alice independently with probability ``p_alice``."""
    rng = as_random(rng)
    alice = [e for e in graph.edges() if rng.random() < p_alice]
    return EdgePartition(graph, alice)


def partition_all_alice(graph: Graph, rng: RandomSource | None = None) -> EdgePartition:
    """Alice holds every edge (the FM25 lower-bound regime)."""
    return EdgePartition(graph, graph.edges())


def partition_all_bob(graph: Graph, rng: RandomSource | None = None) -> EdgePartition:
    """Bob holds every edge."""
    return EdgePartition(graph, ())


def partition_alternating(graph: Graph, rng: RandomSource | None = None) -> EdgePartition:
    """Edges alternate Alice/Bob in canonical order (deterministic 50/50)."""
    alice = [e for idx, e in enumerate(graph.edge_list()) if idx % 2 == 0]
    return EdgePartition(graph, alice)


def partition_by_hash(graph: Graph, rng: RandomSource | None = None) -> EdgePartition:
    """Deterministic pseudo-random split keyed on the edge identity."""
    alice = [(u, v) for u, v in graph.edges() if (u * 0x9E3779B1 ^ v * 0x85EBCA77) & 1]
    return EdgePartition(graph, alice)


def partition_degree_split(graph: Graph, rng: RandomSource | None = None) -> EdgePartition:
    """Each vertex's incident edges split as evenly as possible.

    Maximizes the number of vertices whose neighborhood straddles both
    parties — the regime in which Color-Sample genuinely needs interaction.
    """
    alice: list[Edge] = []
    alice_deg = [0] * graph.n
    bob_deg = [0] * graph.n
    for u, v in graph.edge_list():
        if alice_deg[u] + alice_deg[v] <= bob_deg[u] + bob_deg[v]:
            alice.append((u, v))
            alice_deg[u] += 1
            alice_deg[v] += 1
        else:
            bob_deg[u] += 1
            bob_deg[v] += 1
    return EdgePartition(graph, alice)


def partition_crossing(graph: Graph, rng: RandomSource) -> EdgePartition:
    """A random vertex bisection: crossing edges to Alice, internal to Bob.

    Produces highly correlated, structured views (Alice sees a bipartite-ish
    graph), stressing protocols whose analysis assumes nothing about the
    split.
    """
    rng = as_random(rng)
    side = [rng.random() < 0.5 for _ in range(graph.n)]
    alice = [(u, v) for u, v in graph.edges() if side[u] != side[v]]
    return EdgePartition(graph, alice)


PARTITIONERS: dict[str, Callable[[Graph, RandomSource], EdgePartition]] = {
    "random": partition_random,
    "all_alice": partition_all_alice,
    "all_bob": partition_all_bob,
    "alternating": partition_alternating,
    "hash": partition_by_hash,
    "degree_split": partition_degree_split,
    "crossing": partition_crossing,
}
