"""Tests for Random-Color-Trial's active-history instrumentation."""

from __future__ import annotations

from repro.comm import TRANSPORTS
from repro.rand import Stream
from repro.core import random_color_trial_proto
from repro.graphs import partition_random, random_regular_graph


class TestActiveHistory:
    def run(self, rng, n=120, d=6, cap=None, seed=2):
        g = random_regular_graph(n, d, rng)
        part = partition_random(g, rng)
        history: list[int] = []
        (colors, active), _, t = TRANSPORTS["lockstep"].run(
            (
                random_color_trial_proto,
                part.alice_graph, d + 1, Stream.from_seed(seed), cap, history,
            ),
            (random_color_trial_proto, part.bob_graph, d + 1, Stream.from_seed(seed), cap),
        )
        return history, colors, active, t

    def test_history_starts_at_n_and_decreases(self, rng):
        history, _, _, _ = self.run(rng)
        assert history[0] == 120
        assert all(a >= b for a, b in zip(history, history[1:]))

    def test_history_consistent_with_outcome(self, rng):
        history, colors, active, _ = self.run(rng)
        # The last recorded size can exceed the final count by the last
        # iteration's progress, but never undershoot it.
        assert history[-1] >= len(active)
        assert len(colors) + len(active) == 120

    def test_capped_run_records_exactly_cap_entries(self, rng):
        history, _, active, _ = self.run(rng, cap=3)
        assert len(history) == 3
        assert active  # three iterations cannot finish a 6-regular graph whp

    def test_instrumentation_does_not_change_protocol(self, rng):
        g = random_regular_graph(80, 6, rng)
        part = partition_random(g, rng)

        def run(with_history):
            history = [] if with_history else None
            (colors, active), _, t = TRANSPORTS["lockstep"].run(
                (
                    random_color_trial_proto,
                    part.alice_graph, 7, Stream.from_seed(9), None, history,
                ),
                (random_color_trial_proto, part.bob_graph, 7, Stream.from_seed(9), None),
            )
            return colors, active, t.total_bits, t.rounds

        assert run(True) == run(False)
