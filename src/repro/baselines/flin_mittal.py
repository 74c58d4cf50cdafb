"""The Flin–Mittal sequential protocol [FM25] — the paper's main comparator.

Alice and Bob pick a public random ordering of the vertices and color them
one at a time, running Color-Sample for each vertex to pick an available
color known to both.  Because the vertex order is uniform, the expected cost
per vertex is ``O(1)`` bits (the number of available colors is uniform over
a large range), giving ``O(n)`` expected bits overall — but the protocol is
inherently sequential: ``Θ(n)`` rounds.  Theorem 1's contribution is
precisely removing this round bottleneck.
"""

from __future__ import annotations

from ..comm.transport import Channel, Transport, resolve_transport
from ..rand import Stream
from ..core.color_sample import color_sample_proto
from ..graphs.graph import Graph
from ..graphs.partition import EdgePartition
from .base import BaselineResult

__all__ = ["flin_mittal_proto", "run_flin_mittal"]


def flin_mittal_proto(
    ch: Channel,
    own_graph: Graph,
    num_colors: int,
    pub: Stream,
):
    """One party's side of the sequential FM25 protocol."""
    order = pub.shuffled(range(own_graph.n))
    fm_base = pub.derive("fm")
    colors: dict[int, int] = {}
    for v in order:
        own_used = {colors[u] for u in own_graph.neighbors(v) if u in colors}
        color = yield from color_sample_proto(
            ch, num_colors, own_used, fm_base.derive(v)
        )
        colors[v] = color
    return colors


def run_flin_mittal(
    partition: EdgePartition,
    seed: int = 0,
    transport: str | Transport | None = None,
    rand: Stream | None = None,
) -> BaselineResult:
    """Run FM25 on an edge-partitioned graph and measure it.

    ``rand`` roots the public tape at a caller-owned :class:`Stream`;
    ``seed`` is the back-compat alias for ``Stream.from_seed(seed)`` —
    the two draw bit-for-bit the same tape.
    """
    delta = partition.max_degree
    num_colors = delta + 1
    core = resolve_transport(transport)
    transcript = core.new_transcript()
    if delta == 0:
        return BaselineResult(
            "flin_mittal", {v: 1 for v in range(partition.n)}, transcript, num_colors
        )
    root = rand if rand is not None else Stream.from_seed(seed)
    a_colors, b_colors, _ = core.run(
        lambda ch: flin_mittal_proto(
            ch, partition.alice_graph, num_colors, root.derive("public")
        ),
        lambda ch: flin_mittal_proto(
            ch, partition.bob_graph, num_colors, root.derive("public")
        ),
        transcript,
    )
    if a_colors != b_colors:
        raise AssertionError("FM25 parties disagree on the coloring")
    return BaselineResult("flin_mittal", a_colors, transcript, num_colors)
