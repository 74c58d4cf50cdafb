"""Tests for lazy permutations: Feistel bijectivity and the small-m table.

The Feistel network must be a bijection on ``[0, m)`` for *every* m —
cycle walking handles non-powers-of-two — and the inverse must invert
exactly, because Color-Sample maps used colors through ``index_of`` and
the sampled position back through ``perm[i]``.
"""

from __future__ import annotations

import gc
import hashlib
from collections import Counter

import pytest

from repro.rand import (
    SMALL_THRESHOLD,
    FeistelPermutation,
    LegacyTape,
    SmallPermutation,
    Stream,
    kernels,
    make_permutation,
    prefetch_permutations,
)
from repro.rand import perm as perm_module

requires_numpy = pytest.mark.skipif(
    not kernels.available(), reason="numpy unavailable (or REPRO_NO_NUMPY set)"
)

NON_POWERS_OF_TWO = [1, 2, 3, 5, 6, 7, 9, 11, 12, 13, 37, 97, 100, 129, 1000, 4097]


class TestFeistelBijectivity:
    @pytest.mark.parametrize("m", NON_POWERS_OF_TWO)
    def test_is_a_permutation(self, m):
        perm = FeistelPermutation(0xC0FFEE ^ m, m)
        assert sorted(perm.materialize()) == list(range(m))

    @pytest.mark.parametrize("m", NON_POWERS_OF_TWO)
    def test_inverse_round_trip(self, m):
        perm = FeistelPermutation(0xBADF00D ^ m, m)
        for i in range(m):
            assert perm.index_of(perm[i]) == i
        for x in range(m):
            assert perm[perm.index_of(x)] == x

    def test_pinned_golden(self):
        perm = FeistelPermutation(0xDEADBEEF, 1000)
        digest = hashlib.sha256(
            ",".join(map(str, perm.materialize())).encode()
        ).hexdigest()
        assert digest == (
            "7594c54ef440d1ddc19337441f53133781d8187b7f988273241a801515aeb2c9"
        )

    def test_different_keys_differ(self):
        a = FeistelPermutation(1, 500).materialize()
        b = FeistelPermutation(2, 500).materialize()
        assert a != b

    def test_out_of_range_rejected(self):
        perm = FeistelPermutation(7, 10)
        with pytest.raises(IndexError):
            perm[10]
        with pytest.raises(IndexError):
            perm.index_of(-1)

    def test_lazy_iteration_matches_materialize(self):
        perm = FeistelPermutation(99, 200)
        assert list(perm) == perm.materialize()
        assert len(perm) == 200


class TestSmallPermutation:
    @pytest.mark.parametrize("m", list(range(0, 14)) + [37, SMALL_THRESHOLD])
    def test_is_a_permutation_with_exact_inverse(self, m):
        perm = SmallPermutation(0x5EED ^ m, m)
        assert sorted(perm.materialize()) == list(range(m))
        for i in range(m):
            assert perm.index_of(perm[i]) == i

    def test_lazy_until_first_access(self):
        perm = SmallPermutation(1, 20)
        assert perm._forward is None  # construction draws nothing
        perm[0]
        assert isinstance(perm._forward, bytes)  # m <= 96 < 256

    def test_lehmer_path_is_uniformish(self):
        # m=5 uses the one-word Lehmer decode; every first element should
        # appear ~1/5 of the time across keys.
        counts = Counter(SmallPermutation(key, 5)[0] for key in range(10000))
        assert all(abs(c - 2000) < 300 for c in counts.values()), counts


class TestMakePermutation:
    def test_backend_choice_is_size_deterministic(self):
        assert isinstance(make_permutation(3, SMALL_THRESHOLD), SmallPermutation)
        assert isinstance(make_permutation(3, SMALL_THRESHOLD + 1), FeistelPermutation)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            make_permutation(3, -1)


class TestSharedSmallPermutation:
    """One small table per key, shared while anyone holds it."""

    def test_equal_keys_share_one_object(self):
        for m in (0, 5, 13, 65, SMALL_THRESHOLD):
            a, b = Stream.from_seed(7, "share"), Stream.from_seed(7, "share")
            assert a.permutation(m) is b.permutation(m)

    def test_entry_dies_with_its_last_holder(self):
        perm = make_permutation(0xABCDEF, 65)
        other = make_permutation(0xABCDEF, 65)
        assert perm_module._shared.get(0xABCDEF) is perm
        del perm
        gc.collect()
        assert perm_module._shared.get(0xABCDEF) is other
        del other
        gc.collect()
        assert 0xABCDEF not in perm_module._shared

    def test_same_key_other_size_is_its_own_permutation(self):
        key = 0x5151
        big = make_permutation(key, 65)
        small = make_permutation(key, 40)
        assert small is not big
        assert small.m == 40 and big.m == 65
        assert small.materialize() == SmallPermutation(key, 40).materialize()
        assert big.materialize() == SmallPermutation(key, 65).materialize()
        assert sorted(small.materialize()) == list(range(40))
        for x in range(40):
            assert small[small.index_of(x)] == x

    def test_large_sizes_stay_unshared(self):
        a = make_permutation(9, SMALL_THRESHOLD + 1)
        b = make_permutation(9, SMALL_THRESHOLD + 1)
        assert isinstance(a, FeistelPermutation)
        assert a is not b
        assert a.materialize() == b.materialize()

    def test_materialize_hands_out_a_copy(self):
        perm = make_permutation(0x77, 65)
        want = perm.materialize()
        got = perm.materialize()
        got.reverse()
        got[0] = -1
        assert perm.materialize() == want
        assert make_permutation(0x77, 65).materialize() == want
        assert [perm[i] for i in range(65)] == want


class TestStreamPermutation:
    def test_shared_stream_permutations_agree(self):
        a, b = Stream.from_seed(7), Stream.from_seed(7)
        for m in (1, 2, 5, 33, 200):
            assert a.permutation(m).materialize() == b.permutation(m).materialize()

    def test_successive_permutations_differ(self):
        s = Stream.from_seed(7)
        assert s.permutation(50).materialize() != s.permutation(50).materialize()

    def test_consumes_exactly_one_word(self):
        s = Stream.from_seed(7)
        s.permutation(1000)
        assert s.counter == 1


class TestPrefetchPermutations:
    """A batch of next permutations, built in one pass, drawn by no one."""

    @staticmethod
    def streams(count=40):
        out = [Stream.from_seed(3, "prefetch", v) for v in range(count)]
        for advanced in out[::3]:
            advanced.coins(5, 0.3)
        return out

    @requires_numpy
    @pytest.mark.parametrize("m", [13, 65, SMALL_THRESHOLD])
    def test_returns_each_streams_next_permutation(self, m):
        streams = self.streams()
        held = prefetch_permutations(streams, m)
        assert len(held) == len(streams)
        for perm, stream in zip(held, streams):
            assert stream.permutation(m) is perm
            with kernels.disabled():
                pure = SmallPermutation(perm.key, m).materialize()
            assert perm.materialize() == pure

    @requires_numpy
    def test_counters_do_not_move(self):
        streams = self.streams()
        before = [s.counter for s in streams]
        prefetch_permutations(streams, 65)
        assert [s.counter for s in streams] == before

    @requires_numpy
    def test_live_key_is_reused_not_rebuilt(self, monkeypatch):
        streams = self.streams(8)
        live = Stream(streams[0].key, streams[0].counter).permutation(65)
        table = live.materialize()
        built = []
        tables = kernels.fisher_yates_tables

        def recording(keys, m):
            built.extend(keys)
            return tables(keys, m)

        monkeypatch.setattr(kernels, "fisher_yates_tables", recording)
        held = prefetch_permutations(streams, 65)
        assert held[0] is live
        assert live.key not in built
        assert sorted(built) == sorted(perm.key for perm in held[1:])
        assert live.materialize() == table
        assert prefetch_permutations(streams, 65) == held
        assert len(built) == len(streams) - 1

    @pytest.mark.parametrize("m", [0, 5, 12, SMALL_THRESHOLD + 1, 200])
    def test_nothing_outside_the_table_kernel_range(self, m):
        assert prefetch_permutations(self.streams(), m) == []

    def test_nothing_for_legacy_tapes(self):
        tapes = [LegacyTape(seed).derive("x") for seed in range(4)]
        assert prefetch_permutations(tapes, 65) == []
        assert prefetch_permutations([Stream(1), *tapes], 65) == []

    def test_nothing_with_kernels_disabled(self):
        with kernels.disabled():
            assert prefetch_permutations(self.streams(), 65) == []
