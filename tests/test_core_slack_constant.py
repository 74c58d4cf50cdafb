"""Tests for the parameterized sampling constant of Algorithm 3 and the
transcript round log."""

from __future__ import annotations

import pytest

from repro.comm import TRANSPORTS, Transcript
from repro.rand import Stream
from repro.core import color_sample_proto
from repro.core.slack import randomized_slack_proto, sampling_probability


def run_with_constant(m, X, Y, constant, seed=0):
    return TRANSPORTS["lockstep"].run(
        (randomized_slack_proto, m, X, Stream.from_seed(seed), constant),
        (randomized_slack_proto, m, Y, Stream.from_seed(seed), constant),
    )


class TestSamplingConstantParameter:
    @pytest.mark.parametrize("constant", [1, 2, 8, 150, 1000])
    def test_correct_for_any_constant(self, constant):
        for seed in range(10):
            a, b, _ = run_with_constant(32, {0, 1, 2}, {3, 4}, constant, seed)
            assert a == b
            assert a not in {0, 1, 2, 3, 4}

    def test_small_constant_cheaper_at_full_slack(self):
        cheap = sum(
            run_with_constant(256, set(), set(), 2, s)[2].total_bits
            for s in range(20)
        )
        pricey = sum(
            run_with_constant(256, set(), set(), 150, s)[2].total_bits
            for s in range(20)
        )
        assert cheap < pricey

    def test_rejects_nonpositive_constant(self):
        with pytest.raises(ValueError):
            run_with_constant(4, set(), set(), 0)

    def test_probability_formula(self):
        assert sampling_probability(100, 10, constant=1) == 1.0
        assert sampling_probability(10_000, 10_000, constant=1) == 1e-4

    def test_color_sample_passthrough(self):
        for seed in range(10):
            a, b, _ = TRANSPORTS["lockstep"].run(
                (color_sample_proto, 16, {1, 2}, Stream.from_seed(seed), 4),
                (color_sample_proto, 16, {3}, Stream.from_seed(seed), 4),
            )
            assert a == b and a not in {1, 2, 3}


class TestRoundLog:
    def test_log_matches_totals(self):
        t = Transcript()
        t.record_round(3, 5)
        t.record_round(0, 2)
        assert t.round_log == [(3, 5), (0, 2)]
        assert sum(a for a, _ in t.round_log) == t.bits_alice_to_bob
        assert sum(b for _, b in t.round_log) == t.bits_bob_to_alice
        assert len(t.round_log) == t.rounds

    def test_protocol_run_populates_log(self):
        a, b, t = run_with_constant(64, {1}, {2}, 150)
        assert len(t.round_log) == t.rounds
        assert sum(x + y for x, y in t.round_log) == t.total_bits
