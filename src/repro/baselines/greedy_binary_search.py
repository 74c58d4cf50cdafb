"""Deterministic greedy coloring with binary color search (folklore, [ACG+23]).

The simplest deterministic protocol the introduction mentions: simulate the
greedy algorithm vertex by vertex; for each vertex the parties locate an
available color with the deterministic binary-search protocol of Lemma A.1.
``O(n log² Δ)`` bits, ``Θ(n log Δ)`` rounds — communication is a polylog
factor off optimal and rounds are the worst of all the protocols here,
which is exactly the gap Theorems 1/2 close.
"""

from __future__ import annotations

from ..comm.transport import Channel, Transport, resolve_transport
from ..rand import Stream
from ..core.slack import slack_find_proto
from ..graphs.graph import Graph
from ..graphs.partition import EdgePartition
from .base import BaselineResult

__all__ = ["greedy_binary_search_proto", "run_greedy_binary_search"]


def greedy_binary_search_proto(ch: Channel, own_graph: Graph, num_colors: int):
    """One party's side of the deterministic greedy protocol."""
    ground = list(range(num_colors))
    colors: dict[int, int] = {}
    for v in range(own_graph.n):
        own_used = {
            colors[u] - 1 for u in own_graph.neighbors(v) if u in colors
        }
        position = yield from slack_find_proto(ch, ground, own_used)
        colors[v] = position + 1
    return colors


def run_greedy_binary_search(
    partition: EdgePartition,
    transport: str | Transport | None = None,
    seed: int | None = None,
    rand: Stream | None = None,
) -> BaselineResult:
    """Run the deterministic greedy + binary-search protocol, measured.

    ``seed``/``rand`` are accepted for driver-signature uniformity; the
    protocol is deterministic and draws nothing from them.
    """
    delta = partition.max_degree
    num_colors = delta + 1
    core = resolve_transport(transport)
    transcript = core.new_transcript()
    if delta == 0:
        return BaselineResult(
            "greedy_binary_search",
            {v: 1 for v in range(partition.n)},
            transcript,
            num_colors,
        )
    a_colors, b_colors, _ = core.run(
        lambda ch: greedy_binary_search_proto(ch, partition.alice_graph, num_colors),
        lambda ch: greedy_binary_search_proto(ch, partition.bob_graph, num_colors),
        transcript,
    )
    if a_colors != b_colors:
        raise AssertionError("greedy parties disagree on the coloring")
    return BaselineResult("greedy_binary_search", a_colors, transcript, num_colors)
