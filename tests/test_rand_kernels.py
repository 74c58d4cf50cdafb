"""Tests for the numpy kernel backend of ``repro.rand``.

The contract under test is bit-for-bit parity: every draw the vectorized
kernels produce — values *and* counter consumption — must equal the pure
Python reference path, which stays the golden definition of the streams.
Pinned sha256 digests catch cross-platform drift; the randomized
cross-backend sweep catches dispatch/threshold bugs; the protocol-level
checks prove that flipping the backend cannot change a single experiment
record.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.vertex_coloring import run_vertex_coloring
from repro.engine import build_partition
from repro.engine.scenarios import Scenario
from repro.rand import SMALL_THRESHOLD, SmallPermutation, Stream, kernels

requires_numpy = pytest.mark.skipif(
    not kernels.available(), reason="numpy unavailable (or REPRO_NO_NUMPY set)"
)


def _hd(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# pinned golden digests (valid for BOTH backends — that is the point)
# ---------------------------------------------------------------------------


def _small_perm_tables(stream: Stream) -> str:
    return ";".join(
        ",".join(map(str, stream.derive(k).permutation(m).materialize()))
        for m in (13, 65, 96)
        for k in range(200)
    )


GOLDENS = [
    (
        "biased coins k=5000 p=0.3",
        lambda: "".join(
            "1" if b else "0" for b in Stream.from_seed(7, "kern-coins").coins(5000, 0.3)
        ),
        "d7ed25c5f52d3efeef792b4ac7a3ebde4975b7a66b2eb4d39a00adae5a30cc77",
    ),
    (
        "fair coins k=5000",
        lambda: "".join(
            "1" if b else "0" for b in Stream.from_seed(7, "kern-fair").coins(5000, 0.5)
        ),
        "b855604cc09f395e9bab3b45464e705d9ecbf643c346faf8a30b9f40a638be43",
    ),
    (
        "ints k=3000 wide range",
        lambda: ",".join(
            map(str, Stream.from_seed(7, "kern-ints").ints(3000, -500, 10**9))
        ),
        "7c00fbca95a37a9bbb77004527f082a3ec2d6ba87a4c877aae1f4aa59ea14705",
    ),
    (
        "sample_indices m=65536 p=0.03",
        lambda: ",".join(
            map(str, Stream.from_seed(7, "kern-idx").sample_indices(65536, 0.03))
        ),
        "4b3e44a583a91b6743cac1d603cb04a3abc0ceae92df1d088babfde53b5f5310",
    ),
    (
        "sample_mask m=8192 p=0.4",
        lambda: "".join(
            "1" if b else "0" for b in Stream.from_seed(7, "kern-mask").sample_mask(8192, 0.4)
        ),
        "7df3f6000c7830bda8ab6462c50cdb06a050f43fac1f769d851636cae7d25fae",
    ),
    (
        "feistel materialize m=4097",
        lambda: ",".join(
            map(str, Stream.from_seed(7, "kern-perm").permutation(4097).materialize())
        ),
        "eaef06d5265aad671ac3c56e68a2f9cf44f8150fef71b43354df34f72e3c037f",
    ),
    (
        # Each permutation dies right after its materialize(), so the
        # shared small-m table never leaks across the kernels.disabled()
        # boundary and each arm builds its own tables.
        "small perms m=13,65,96 x 200 keys",
        lambda: _small_perm_tables(Stream.from_seed(7, "kern-small-perm")),
        "90c60a50f35a12d029553b02ce9d028c566e05fd9da9bc0bc33af138a6623fd3",
    ),
]


class TestGoldenDigests:
    """The same pinned digest must hold with kernels on and off."""

    @pytest.mark.parametrize("name,draw,expected", GOLDENS, ids=[g[0] for g in GOLDENS])
    def test_pure_path(self, name, draw, expected):
        with kernels.disabled():
            assert _hd(draw()) == expected

    @requires_numpy
    @pytest.mark.parametrize("name,draw,expected", GOLDENS, ids=[g[0] for g in GOLDENS])
    def test_kernel_path(self, name, draw, expected):
        assert _hd(draw()) == expected


# ---------------------------------------------------------------------------
# randomized cross-backend equivalence
# ---------------------------------------------------------------------------


def _coin_cases():
    rng = random.Random(0xC01)
    cases = []
    for i in range(20):
        k = rng.choice([1, 63, 64, 65, 127, 128, 129, 2047, 2048, 2049, 5000])
        p = rng.choice([0.5, 0.0, 1.0, -0.2, 1.5, 1e-9, 0.3, 0.77])
        cases.append((rng.randrange(2**31), k, p))
    return cases


def _int_cases():
    rng = random.Random(0x1E7)
    cases = []
    for i in range(15):
        k = rng.choice([1, 127, 128, 129, 1000, 4096])
        low = rng.choice([0, -1, 10**18, -(10**18), 2**63 - 5, -(2**63)])
        width = rng.choice([1, 2, 97, 2**32, 2**63 - 1, 2**63 + 1, 2**64 - 1])
        cases.append((rng.randrange(2**31), k, low, low + width - 1))
    return cases


def _sample_cases():
    rng = random.Random(0x5A3)
    cases = []
    for i in range(15):
        m = rng.choice([1, 127, 128, 129, 4096, 65536])
        p = rng.choice([0.0, 1.0, 2.0, -1.0, 0.01, 0.05, 0.3, 0.9])
        cases.append((rng.randrange(2**31), m, p))
    return cases


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """SplitMix64's avalanche in exact Python integers (the reference)."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _fisher_yates_keys():
    rng = random.Random(0xF15)
    return [0, _MASK64] + [rng.getrandbits(64) for _ in range(12)]


def _fisher_yates_formula(key, m):
    """The pure swap targets ``j_i`` for ``i = m−1 … 1``."""
    return [(_mix64(key + i * _GOLDEN) * (i + 1)) >> 64 for i in range(m - 1, 0, -1)]


@requires_numpy
class TestCrossBackendEquivalence:
    """Kernels must match the pure path in values AND counter consumption."""

    @pytest.mark.parametrize("seed,k,p", _coin_cases())
    def test_coins(self, seed, k, p):
        a = Stream.from_seed(seed, "x")
        b = Stream.from_seed(seed, "x")
        with kernels.disabled():
            want = a.coins(k, p)
        got = b.coins(k, p)
        assert got == want
        assert a.counter == b.counter

    @pytest.mark.parametrize("seed,k,low,high", _int_cases())
    def test_ints(self, seed, k, low, high):
        a = Stream.from_seed(seed, "x")
        b = Stream.from_seed(seed, "x")
        with kernels.disabled():
            want = a.ints(k, low, high)
        got = b.ints(k, low, high)
        assert got == want
        assert a.counter == b.counter

    @pytest.mark.parametrize("seed,m,p", _sample_cases())
    def test_sample_indices_and_mask(self, seed, m, p):
        a = Stream.from_seed(seed, "x")
        b = Stream.from_seed(seed, "x")
        with kernels.disabled():
            want_idx = list(a.sample_indices(m, p))
            want_mask = a.sample_mask(m, p)
        got_idx = list(b.sample_indices(m, p))
        got_mask = b.sample_mask(m, p)
        assert got_idx == want_idx
        assert got_mask == want_mask
        assert a.counter == b.counter

    @pytest.mark.parametrize("m", [97, 256, 257, 1000, 4097, 10007])
    def test_feistel_non_power_of_two(self, m):
        # Batch queries, inverse batches, and full materialization on
        # non-power-of-two domains (cycle walking exercised).
        with kernels.disabled():
            pure_perm = Stream.from_seed(11, "f").permutation(m)
            want_tab = list(pure_perm.materialize())
        perm = Stream.from_seed(11, "f").permutation(m)
        xs = list(range(0, m, 3))
        assert perm.batch(xs) == [want_tab[x] for x in xs]
        assert perm.index_of_batch([want_tab[x] for x in xs]) == xs
        assert list(perm.materialize()) == want_tab
        assert sorted(want_tab) == list(range(m))

    @pytest.mark.parametrize("key", _fisher_yates_keys())
    def test_fisher_yates_indices(self, key):
        # Sizes in shuffled order so the cached step arrays are both
        # reused and regrown between calls.
        sizes = [1, 2, 3, 13, 14, 40, 65, SMALL_THRESHOLD]
        random.Random(key).shuffle(sizes)
        for m in sizes:
            assert kernels.fisher_yates_indices([key], m).tolist() == [
                _fisher_yates_formula(key, m)
            ]
            # Fresh (unshared) objects: the table each arm builds is its own.
            with kernels.disabled():
                pure = SmallPermutation(key, m).materialize()
            assert SmallPermutation(key, m).materialize() == pure

    @pytest.mark.parametrize("m", [2, 13, 65, SMALL_THRESHOLD])
    def test_fisher_yates_indices_batch_rows(self, m):
        keys = _fisher_yates_keys()
        swaps = kernels.fisher_yates_indices(keys, m)
        assert swaps.shape == (len(keys), m - 1)
        for key, row in zip(keys, swaps.tolist()):
            assert row == _fisher_yates_formula(key, m)

    @pytest.mark.parametrize("m", [13, 14, 65, SMALL_THRESHOLD])
    def test_fisher_yates_tables(self, m):
        keys = _fisher_yates_keys()
        with kernels.disabled():
            want = [bytes(SmallPermutation(key, m).materialize()) for key in keys]
        assert kernels.fisher_yates_tables(keys, m) == want

    @pytest.mark.parametrize("k", [0, 1, 3000, kernels.FISHER_YATES_BLOCK + 1])
    def test_fisher_yates_tables_batch_sizes(self, k):
        rng = random.Random(k)
        keys = [rng.getrandbits(64) for _ in range(k)]
        with kernels.disabled():
            want = [bytes(SmallPermutation(key, 65).materialize()) for key in keys]
        got = kernels.fisher_yates_tables(keys, 65)
        assert got == want
        assert all(type(table) is bytes for table in got)


# ---------------------------------------------------------------------------
# gating and the escape hatch
# ---------------------------------------------------------------------------


class TestGating:
    def test_disabled_context_restores(self):
        before = kernels.available()
        with kernels.disabled():
            assert not kernels.available()
        assert kernels.available() == before

    def test_disabled_context_is_reentrant(self):
        with kernels.disabled():
            with kernels.disabled():
                assert not kernels.available()
            assert not kernels.available()

    @requires_numpy
    def test_thresholds_are_sane(self):
        assert kernels.MIN_BATCH >= 1
        assert kernels.FAIR_MIN_BATCH >= kernels.MIN_BATCH
        assert kernels.FEISTEL_MIN_BATCH >= 1


# ---------------------------------------------------------------------------
# protocol-level invariance
# ---------------------------------------------------------------------------


@requires_numpy
class TestProtocolInvariance:
    """Flipping the kernel backend must not change any experiment record."""

    def test_vertex_coloring_identical(self):
        scenario = Scenario(
            family="regular",
            params=(("d", 8), ("n", 128)),
            partition="random",
            protocol="vertex",
            seed=3,
        )
        part = build_partition(scenario)
        live = run_vertex_coloring(part, seed=3)
        with kernels.disabled():
            pure = run_vertex_coloring(part, seed=3)
        assert live.colors == pure.colors
        assert live.transcript.summary() == pure.transcript.summary()
        assert live.leftover_size == pure.leftover_size

    def test_scenario_record_identical(self):
        from repro.engine.scenarios import PROTOCOLS

        scenario = Scenario(
            family="gnp",
            params=(("n", 48), ("p", 0.2)),
            partition="random",
            protocol="vertex",
            backend="csr",
        )
        part = build_partition(scenario)
        run = PROTOCOLS["vertex"].run
        live = run(part, scenario.effective_seed)
        with kernels.disabled():
            pure = run(part, scenario.effective_seed)
        assert live == pure
