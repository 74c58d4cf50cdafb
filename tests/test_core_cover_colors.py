"""Tests for the Lemma 5.4 cover-colors message."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.bits import gamma_cost, uint_cost
from repro.core import build_cover_message, decode_cover_message


def used_from(available, palette):
    """The used-color sets whose complement in ``palette`` is ``available``."""
    return {v: set(palette) - colors for v, colors in available.items()}


def random_available(rng, vertices, palette, min_fraction=1 / 3):
    """Random availability sets each containing ≥ min_fraction of the palette."""
    need = math.ceil(len(palette) * min_fraction)
    return {
        v: set(rng.sample(palette, rng.randint(need, len(palette))))
        for v in vertices
    }


class TestBuildAndDecode:
    def test_round_trip_assigns_available_color(self, rng):
        palette = list(range(10, 25))  # 15 colors, like Bob's palette at Δ=16
        for _ in range(30):
            vertices = rng.sample(range(100), rng.randint(1, 40))
            available = random_available(rng, vertices, palette)
            msg = build_cover_message(vertices, used_from(available, palette), palette)
            assignment = decode_cover_message(vertices, msg)
            assert set(assignment) == set(vertices)
            for v, color in assignment.items():
                assert color in available[v]
                assert color in palette

    def test_empty_vertex_set(self):
        msg = build_cover_message([], {}, [1, 2, 3])
        assert msg.colors == ()
        assert decode_cover_message([], msg) == {}

    def test_message_size_linear(self, rng):
        """Lemma 5.4: O(n) bits total despite O(log n) cover rounds."""
        palette = list(range(1, 16))
        sizes = []
        for n in (50, 100, 200, 400):
            vertices = list(range(n))
            available = random_available(rng, vertices, palette)
            msg = build_cover_message(vertices, used_from(available, palette), palette)
            sizes.append(msg.nbits / n)
        # Per-vertex cost roughly flat (geometric series ≤ 3n + color ids).
        assert max(sizes) <= 2 * min(sizes) + 8

    def test_cover_iterations_logarithmic(self, rng):
        palette = list(range(1, 16))
        vertices = list(range(500))
        available = random_available(rng, vertices, palette)
        msg = build_cover_message(vertices, used_from(available, palette), palette)
        assert len(msg.colors) <= 3 * math.log2(500) + 5

    def test_rejects_empty_availability(self):
        with pytest.raises(ValueError):
            build_cover_message([0], used_from({0: set()}, [1, 2]), [1, 2])

    def test_decode_rejects_wrong_vertex_set(self, rng):
        palette = [1, 2, 3]
        available = {0: {1}, 1: {2}}
        msg = build_cover_message([0, 1], used_from(available, palette), palette)
        with pytest.raises(ValueError):
            decode_cover_message([0, 1, 2], msg)

    def test_singleton_availability_worst_case(self):
        # Each vertex accepts exactly one distinct color: the cover needs
        # one round per color but must still terminate and assign.
        palette = [1, 2, 3, 4]
        vertices = [10, 11, 12, 13]
        available = {10 + i: {palette[i]} for i in range(4)}
        msg = build_cover_message(vertices, used_from(available, palette), palette)
        assignment = decode_cover_message(vertices, msg)
        assert assignment == {10: 1, 11: 2, 12: 3, 13: 4}


def reference_cover(low_vertices, used, palette):
    """Naive Lemma 5.4 greedy: per-vertex membership in ``palette − used[v]``,
    first maximum in palette order winning ties."""
    available = {v: set(palette) - used[v] for v in low_vertices}
    uncovered = sorted(low_vertices)
    colors, bitmaps, nbits = [], [], 0
    while uncovered:
        best, best_count = None, -1
        for color in palette:
            count = sum(1 for v in uncovered if color in available[v])
            if count > best_count:
                best, best_count = color, count
        flags = tuple(best in available[v] for v in uncovered)
        colors.append(best)
        bitmaps.append(flags)
        nbits += uint_cost(max(palette)) + len(flags)
        uncovered = [v for v, hit in zip(uncovered, flags) if not hit]
    nbits += gamma_cost(len(colors) + 1)
    return tuple(colors), tuple(bitmaps), nbits


def random_used(rng, vertices, palette, density, outside=()):
    """Used-color sets drawing each palette color with probability
    ``density`` (plus some ``outside`` colors), always leaving one free."""
    used = {}
    for v in vertices:
        colors = {c for c in palette if rng.random() < density}
        colors |= {c for c in outside if rng.random() < 0.5}
        if set(palette) <= colors:
            colors.discard(rng.choice(palette))
        used[v] = colors
    return used


def assert_matches_reference(vertices, used, palette):
    msg = build_cover_message(vertices, used, palette)
    assert (msg.colors, msg.bitmaps, msg.nbits) == reference_cover(
        vertices, used, palette
    )
    return msg


class TestReferenceGreedy:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        n=st.integers(min_value=0, max_value=70),
        start=st.sampled_from([1, 8, 40]),
        k=st.integers(min_value=1, max_value=20),
        density=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_matches_naive_greedy(self, seed, n, start, k, density):
        rng = random.Random(seed)
        palette = list(range(start, start + k))
        vertices = rng.sample(range(200), n)
        outside = [start - 1, start + k, start + k + 7]
        used = random_used(rng, vertices, palette, density, outside)
        assert_matches_reference(vertices, used, palette)

    @pytest.mark.parametrize(
        "n, palette, density",
        [
            (13, list(range(40, 103)), 0.5),  # offset palette, 13 % 8 != 0
            (37, list(range(1, 16)), 0.95),  # dense: multi-round cover
            (61, list(range(8, 20)), 0.0),  # nothing used: one round
            (8, [5, 3, 9, 1], 0.6),  # unsorted palette, byte-aligned size
            (0, list(range(1, 4)), 0.5),  # empty low set
        ],
    )
    def test_pinned_shapes(self, n, palette, density):
        rng = random.Random(n)
        vertices = rng.sample(range(500), n)
        outside = [0, max(palette) + 1, 1000]
        used = random_used(rng, vertices, palette, density, outside)
        msg = assert_matches_reference(vertices, used, palette)
        if density > 0.9:
            assert len(msg.colors) > 1
        if n == 0:
            assert msg.colors == () and msg.nbits == gamma_cost(1)

    def test_used_as_sequence_matches_mapping(self):
        rng = random.Random(3)
        palette = list(range(40, 103))
        used = random_used(rng, range(29), palette, 0.8, [7, 200])
        as_list = [used[v] for v in range(29)]
        low = [v for v in range(29) if v % 3]
        assert build_cover_message(low, as_list, palette) == build_cover_message(
            low, used, palette
        )

    def test_rejects_palette_fully_used(self):
        palette = [1, 2, 3]
        used = {3: {1}, 5: {0, 1, 2, 3, 4}}  # a superset of the palette
        with pytest.raises(ValueError, match="vertex 5"):
            build_cover_message([3, 5], used, palette)
