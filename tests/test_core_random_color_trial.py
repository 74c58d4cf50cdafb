"""Tests for Random-Color-Trial (Algorithm 1 / Lemma 4.1)."""

from __future__ import annotations


from repro.comm import TRANSPORTS
from repro.rand import Stream
from repro.core import paper_iteration_count, random_color_trial_proto
from repro.graphs import (
    gnp_random_graph,
    partition_random,
    random_regular_graph,
    vertex_coloring_conflicts,
)

from .conftest import all_partitions


def run_trial(partition, num_colors, seed=0, max_iterations=None):
    (a_colors, a_active), (b_colors, b_active), t = TRANSPORTS["lockstep"].run(
        (
            random_color_trial_proto,
            partition.alice_graph,
            num_colors,
            Stream.from_seed(seed),
            max_iterations,
        ),
        (
            random_color_trial_proto,
            partition.bob_graph,
            num_colors,
            Stream.from_seed(seed),
            max_iterations,
        ),
    )
    assert a_colors == b_colors and a_active == b_active
    return a_colors, a_active, t


class TestPaperIterationCount:
    def test_monotone(self):
        assert paper_iteration_count(4) <= paper_iteration_count(1 << 20)

    def test_small_values(self):
        assert paper_iteration_count(1) == 1
        assert paper_iteration_count(2) == 1

    def test_loglog_growth(self):
        # Doubling n barely changes the count (it is log log n).
        big = paper_iteration_count(1 << 16)
        bigger = paper_iteration_count(1 << 17)
        assert bigger - big <= 8


class TestPartialColoringValidity:
    def test_no_conflicts_and_consistency(self, rng):
        for _ in range(20):
            g = gnp_random_graph(rng.randint(2, 40), rng.random() * 0.5, rng)
            if g.max_degree() == 0:
                continue
            part = partition_random(g, rng)
            colors, active, _ = run_trial(part, g.max_degree() + 1, seed=rng.randint(0, 999))
            assert vertex_coloring_conflicts(g, colors) == []
            assert set(colors) | set(active) == set(range(g.n))
            assert not set(colors) & set(active)
            assert all(1 <= c <= g.max_degree() + 1 for c in colors.values())

    def test_partition_adversaries(self, rng):
        g = gnp_random_graph(30, 0.3, rng)
        if g.max_degree() == 0:
            g.add_edge(0, 1)
        for part in all_partitions(g, rng):
            colors, active, _ = run_trial(part, g.max_degree() + 1)
            assert vertex_coloring_conflicts(g, colors) == []


class TestProgress:
    def test_paper_iterations_color_almost_everything(self, rng):
        g = random_regular_graph(300, 8, rng)
        colors, active, _ = run_trial(partition_random(g, rng), 9, seed=3)
        # Lemma 4.1(i): expected leftover O(n / log^4 n); with the paper's
        # generous cap the run should finish almost everything.
        assert len(active) <= 300 // 10

    def test_single_iteration_leaves_work(self, rng):
        g = random_regular_graph(300, 8, rng)
        colors, active, _ = run_trial(
            partition_random(g, rng), 9, seed=3, max_iterations=1
        )
        assert active  # one iteration cannot color everything whp
        assert colors  # but it colors a constant fraction

    def test_active_decays_geometrically(self, rng):
        g = random_regular_graph(400, 10, rng)
        part = partition_random(g, rng)
        sizes = []
        for iterations in (1, 2, 4, 8):
            _, active, _ = run_trial(part, 11, seed=5, max_iterations=iterations)
            sizes.append(len(active))
        assert sizes[0] >= sizes[1] >= sizes[2] >= sizes[3]
        assert sizes[3] < sizes[0] / 3


class TestCost:
    def test_linear_bits(self, rng):
        """Lemma 4.1(ii): O(n) expected bits — per-vertex cost roughly flat."""
        per_vertex = []
        for n in (128, 256, 512):
            g = random_regular_graph(n, 8, rng)
            _, _, t = run_trial(partition_random(g, rng), 9, seed=7)
            per_vertex.append(t.total_bits / n)
        assert max(per_vertex) <= 3 * min(per_vertex) + 8

    def test_round_cap(self, rng):
        """Lemma 4.1(iii): worst case O(log log n · log Δ) rounds."""
        g = random_regular_graph(512, 8, rng)
        _, _, t = run_trial(partition_random(g, rng), 9, seed=7)
        import math

        loglog = math.log2(math.log2(512))
        logdelta = math.log2(9)
        assert t.rounds <= 40 * loglog * logdelta

    def test_edgeless_graph_is_cheap(self, rng):
        g = gnp_random_graph(20, 0.0, rng)
        colors, active, t = run_trial(partition_random(g, rng), 1)
        # Isolated vertices succeed on their first awake try: a handful of
        # bits each (one count exchange + one confirmation bit per side).
        assert t.total_bits <= 20 * 12
        assert not active
        assert all(c == 1 for c in colors.values())
