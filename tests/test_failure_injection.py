"""Failure-injection tests: corrupted outputs and broken schedules are caught.

The library's safety story rests on two layers: independent validators
(``repro.graphs.validation``) that re-check definitions from scratch, and
the lockstep runner's desync detection.  These tests corrupt real protocol
outputs and real schedules and assert the layers fire.
"""

from __future__ import annotations


import pytest

from repro.comm import TRANSPORTS, ProtocolDesyncError
from repro.core import (
    build_cover_message,
    decode_cover_message,
    run_edge_coloring,
    run_vertex_coloring,
)
from repro.graphs import (
    gnp_random_graph,
    is_proper_edge_coloring,
    is_proper_vertex_coloring,
    partition_random,
    random_regular_graph,
)
from repro.lowerbound import decode_bit, gadget_partition


def corrupt_one(mapping, rng):
    """Flip one entry's color to a colliding neighbor color if possible."""
    key = rng.choice(sorted(mapping))
    corrupted = dict(mapping)
    corrupted[key] = corrupted[key] + 1
    return corrupted


class TestValidatorsCatchCorruption:
    def test_vertex_coloring_corruption_detected(self, rng):
        g = random_regular_graph(40, 6, rng)
        part = partition_random(g, rng)
        res = run_vertex_coloring(part, seed=1)
        assert is_proper_vertex_coloring(g, res.colors, 7)
        # Set a vertex to a neighbor's color: must be detected.
        v = next(iter(g.vertices()))
        u = next(iter(g.neighbors(v)))
        bad = dict(res.colors)
        bad[v] = bad[u]
        assert not is_proper_vertex_coloring(g, bad, 7)

    def test_edge_coloring_corruption_detected(self, rng):
        g = random_regular_graph(40, 9, rng)
        part = partition_random(g, rng)
        res = run_edge_coloring(part)
        colors = res.colors
        assert is_proper_edge_coloring(g, colors, 17)
        # Copy a color across two incident edges.
        v = max(g.vertices(), key=g.degree)
        neigh = sorted(g.neighbors(v))
        e1 = tuple(sorted((v, neigh[0])))
        e2 = tuple(sorted((v, neigh[1])))
        bad = dict(colors)
        bad[e1] = bad[e2]
        assert not is_proper_edge_coloring(g, bad, 17)

    def test_out_of_palette_detected(self, rng):
        g = gnp_random_graph(10, 0.5, rng)
        part = partition_random(g, rng)
        res = run_vertex_coloring(part, seed=2)
        bad = dict(res.colors)
        bad[0] = g.max_degree() + 99
        assert not is_proper_vertex_coloring(g, bad, g.max_degree() + 1)

    def test_gadget_decoder_rejects_corruption(self, rng):
        part = gadget_partition([1, 0, 1])
        res = run_vertex_coloring(part, seed=3)
        bad = dict(res.colors)
        bad[0] = bad[1]  # collapse an always-present edge {a, b}
        with pytest.raises(ValueError):
            decode_bit(bad, 0)


class TestCoverMessageTampering:
    def test_truncated_message_detected(self, rng):
        palette = [1, 2, 3, 4, 5]
        vertices = list(range(12))
        available = {v: set(palette) for v in vertices}
        msg = build_cover_message(vertices, available, palette)
        from repro.core import CoverMessage

        truncated = CoverMessage(msg.colors[:-1], msg.bitmaps[:-1], msg.nbits)
        if len(msg.colors) == 1:
            # Single-round cover: truncation empties it; decoding must
            # report uncovered vertices.
            with pytest.raises(ValueError):
                decode_cover_message(vertices, truncated)
        else:
            with pytest.raises(ValueError):
                decode_cover_message(vertices, truncated)

    def test_wrong_audience_detected(self, rng):
        palette = [1, 2, 3]
        vertices = [0, 1, 2]
        available = {v: {1, 2, 3} for v in vertices}
        msg = build_cover_message(vertices, available, palette)
        with pytest.raises(ValueError):
            decode_cover_message([0, 1], msg)


class TestScheduleBreakage:
    def test_party_stopping_early_is_detected(self):
        def chatty(ch):
            yield from ch.send(1, "a")
            yield from ch.send(1, "b")
            return "done"

        def quiet(ch):
            yield from ch.send(1, "x")
            return "done"

        with pytest.raises(ProtocolDesyncError):
            TRANSPORTS["lockstep"].run(chatty, quiet)

    def test_exception_in_party_propagates(self):
        def fine(ch):
            yield from ch.send(1, None)
            return 0

        def broken(ch):
            yield from ch.send(1, None)
            raise RuntimeError("injected fault")

        with pytest.raises(RuntimeError, match="injected fault"):
            TRANSPORTS["lockstep"].run(fine, broken)

    def test_mismatched_public_seeds_detected_by_driver(self, rng):
        """The Theorem 1 driver cross-checks the parties' outputs; feeding
        parties different public tapes must be caught, not silently
        accepted."""
        from repro.rand import Stream
        from repro.core import random_color_trial_proto

        g = random_regular_graph(30, 4, rng)
        part = partition_random(g, rng)
        with pytest.raises(Exception):
            # Different seeds → different awake sets → either a desync,
            # a protocol error, or (caught downstream) disagreeing colors.
            (a_colors, a_active), (b_colors, b_active), _ = TRANSPORTS["lockstep"].run(
                (random_color_trial_proto, part.alice_graph, 5, Stream.from_seed(1)),
                (random_color_trial_proto, part.bob_graph, 5, Stream.from_seed(2)),
            )
            if a_colors != b_colors or a_active != b_active:
                raise AssertionError("parties disagree")
