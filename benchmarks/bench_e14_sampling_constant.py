"""E14 — ablation: Algorithm 3's sampling constant ``C``.

DESIGN.md calls out the one genuinely tunable design choice inside
Color-Sample: the inclusion probability ``p = min(1, C·m/k̃²)`` with the
paper's ``C = 150``.  The constant buys first-guess success probability
(large ``C`` → large sample ``S`` → the ``|S∩X|+|S∩Y| < |S|`` test
succeeds immediately) at the price of a larger binary-search domain
(``log²|S|`` bits).  The sweep shows the trade-off: small ``C`` saves bits
when slack is plentiful but pays extra guess rounds when slack is scarce;
the paper's choice is a rounds-robust point.
"""

from __future__ import annotations

from repro.analysis import mean_ci, print_table
from repro.comm import TRANSPORTS
from repro.rand import Stream
from repro.core import color_sample_proto

PALETTE = 256
CONSTANTS = (2, 8, 32, 150)
SLACKS = (128, 8, 1)
TRIALS = 60


def sample_cost(m: int, k: int, constant: int, seed: int):
    blocked = m - k
    used_a = set(range(1, blocked // 2 + 1))
    used_b = set(range(blocked // 2 + 1, blocked + 1))
    _, _, t = TRANSPORTS["lockstep"].run(
        (color_sample_proto, m, used_a, Stream.from_seed(seed), constant),
        (color_sample_proto, m, used_b, Stream.from_seed(seed), constant),
    )
    return t.total_bits, t.rounds


def test_e14_sampling_constant_ablation(benchmark):
    rows = []
    summary: dict[tuple[int, int], tuple[float, float]] = {}
    for constant in CONSTANTS:
        for k in SLACKS:
            bits, rounds = zip(
                *(sample_cost(PALETTE, k, constant, s) for s in range(TRIALS))
            )
            bits_mean, _ = mean_ci(bits)
            rounds_mean, _ = mean_ci(rounds)
            summary[(constant, k)] = (bits_mean, rounds_mean)
            rows.append([constant, k, round(bits_mean, 1), round(rounds_mean, 2)])
    print_table(
        ["C", "available k", "bits (mean)", "rounds (mean)"],
        rows,
        title=f"E14  Algorithm 3 sampling-constant ablation (Δ+1={PALETTE})",
    )

    # Trade-off shape: at generous slack, small C is cheaper in bits...
    assert summary[(2, 128)][0] < summary[(150, 128)][0]
    # ...but at scarce slack, small C needs more rounds (failed guesses).
    assert summary[(2, 1)][1] > summary[(150, 1)][1]
    # Correctness held throughout (sample_cost asserts inside the transport
    # run via the protocols' own invariants); every configuration terminated.
    assert len(summary) == len(CONSTANTS) * len(SLACKS)

    benchmark(lambda: sample_cost(PALETTE, 8, 150, 17))
