"""Lazy pseudorandom permutations of ``range(m)``.

:class:`FeistelPermutation` evaluates ``perm[i]`` and its inverse
``index_of(x)`` in O(1) per query — no O(m) shuffle — by running a
4-round balanced Feistel network over the smallest even-bit-width domain
``2^{2h} ≥ m`` and *cycle-walking* out-of-range values back into
``[0, m)``.  Because the domain is less than ``4m``, a walk takes under
four rounds in expectation, and the cycle-walked restriction of a
bijection is itself a bijection on ``[0, m)`` (for any ``m``, power of
two or not).

For small ``m`` the constant factors favor just materializing: a
Fisher–Yates table costs about the same as a handful of Feistel queries,
so :func:`make_permutation` returns a :class:`SmallPermutation` up to
``SMALL_THRESHOLD`` — built lazily on first access, with ``index_of`` a
byte search of the table.  Both back-ends are pure
functions of ``(key, m)``, so either side of a protocol computes the same
permutation without communication.

That purity is what lets the simulator build each small table once per
key per process.  A permutation drawn from the shared public stream is
the public coin of the model (Section 3.1): both parties read the same
key and would derive the same table, so :func:`make_permutation` hands
every caller holding that key the *same* :class:`SmallPermutation`
object through a weak map, and the table is freed when no party holds it
any more.  Sharing changes only how often a table is computed, never its
values or the bits either party sends.  :func:`prebuild_permutations`
goes one step further for a batch of keys known ahead of their draws: it
builds all their missing tables in one numpy pass and registers them in
the same weak map.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable, Iterator

from . import kernels as _kernels

__all__ = [
    "FeistelPermutation",
    "Permutation",
    "SmallPermutation",
    "make_permutation",
    "prebuild_permutations",
    "SMALL_THRESHOLD",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15

#: Below this size a materialized table beats Feistel cycle-walking.
SMALL_THRESHOLD = 96

#: Feistel rounds — 4 gives full avalanche for a PRF round function.
_ROUNDS = 4

#: Up to 12!, a whole Lehmer code fits one 64-bit word with negligible
#: (< 2^-34) bias, so tiny permutations decode from a single PRF output.
_FACTORIALS = (1, 1, 2, 6, 24, 120, 720, 5040, 40320, 362880, 3628800, 39916800, 479001600)
_LEHMER_MAX = 12


def _mix(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class Permutation:
    """Common interface: ``perm[i]``, ``index_of``, iteration, ``materialize``."""

    __slots__ = ("m",)

    def __init__(self, m: int) -> None:
        if m < 0:
            raise ValueError(f"permutation size must be >= 0, got {m}")
        self.m = m

    def __len__(self) -> int:
        return self.m

    def __getitem__(self, i: int) -> int:
        raise NotImplementedError

    def index_of(self, x: int) -> int:
        """The position ``i`` with ``perm[i] == x`` (the inverse map)."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[int]:
        return (self[i] for i in range(self.m))

    def batch(self, indices: Iterable[int]) -> list[int]:
        """``[perm[i] for i in indices]`` in one call.

        The base implementation is the scalar loop; the Feistel back-end
        overrides it with a vectorized network evaluation (identical
        values — the kernels are pinned against this loop).
        """
        return [self[i] for i in indices]

    def index_of_batch(self, values: Iterable[int]) -> list[int]:
        """``[perm.index_of(x) for x in values]`` in one call."""
        return [self.index_of(x) for x in values]

    def materialize(self) -> list[int]:
        """The full permutation as a list (forces all m evaluations)."""
        return [self[i] for i in range(self.m)]

    def _check(self, i: int) -> None:
        if not 0 <= i < self.m:
            raise IndexError(f"index {i} out of range for permutation of {self.m}")


class FeistelPermutation(Permutation):
    """Format-preserving 4-round Feistel permutation with cycle walking."""

    __slots__ = ("key", "_half_bits", "_half_mask", "_round_keys")

    def __init__(self, key: int, m: int) -> None:
        super().__init__(m)
        self.key = key & _MASK64
        # Smallest balanced domain 2^(2h) >= m; h >= 1 keeps the network
        # non-degenerate for m <= 2.
        bits = max(m - 1, 1).bit_length()
        half_bits = max(1, (bits + 1) // 2)
        self._half_bits = half_bits
        self._half_mask = (1 << half_bits) - 1
        self._round_keys = tuple(
            _mix(self.key ^ ((r + 1) * _GOLDEN)) for r in range(_ROUNDS)
        )

    def _encrypt(self, x: int) -> int:
        h, mask = self._half_bits, self._half_mask
        left, right = x >> h, x & mask
        for rk in self._round_keys:
            left, right = right, left ^ (_mix(rk ^ right) & mask)
        return (left << h) | right

    def _decrypt(self, x: int) -> int:
        h, mask = self._half_bits, self._half_mask
        left, right = x >> h, x & mask
        for rk in reversed(self._round_keys):
            left, right = right ^ (_mix(rk ^ left) & mask), left
        return (left << h) | right

    def __getitem__(self, i: int) -> int:
        self._check(i)
        x = self._encrypt(i)
        while x >= self.m:  # cycle-walk: E[steps] < 4 since domain < 4m
            x = self._encrypt(x)
        return x

    def index_of(self, x: int) -> int:
        self._check(x)
        i = self._decrypt(x)
        while i >= self.m:
            i = self._decrypt(i)
        return i

    def batch(self, indices: Iterable[int]) -> list[int]:
        indices = list(indices)
        if (
            _kernels._np is not None
            and len(indices) >= _kernels.FEISTEL_MIN_BATCH
        ):
            for i in indices:
                self._check(i)
            return _kernels.feistel_batch(self, indices, forward=True)
        return [self[i] for i in indices]

    def index_of_batch(self, values: Iterable[int]) -> list[int]:
        values = list(values)
        if (
            _kernels._np is not None
            and len(values) >= _kernels.FEISTEL_MIN_BATCH
        ):
            for x in values:
                self._check(x)
            return _kernels.feistel_batch(self, values, forward=False)
        return [self.index_of(x) for x in values]

    def materialize(self) -> list[int]:
        if _kernels._np is not None and self.m >= _kernels.FEISTEL_MIN_BATCH:
            return _kernels.feistel_batch(self, range(self.m), forward=True)
        return [self[i] for i in range(self.m)]


class SmallPermutation(Permutation):
    """Materialize-on-first-access Fisher–Yates table for small ``m``.

    Construction draws nothing; the table is built on the first query
    (unless :func:`prebuild_permutations` built it in a batch already)
    from the key's own SplitMix64 sequence and stored as immutable
    ``bytes`` (``m ≤ SMALL_THRESHOLD < 256``).  ``index_of`` is a C-level
    byte search of that table, so no inverse table is kept.
    :func:`make_permutation` shares one instance per key between every
    holder, so each table is built once per key per process and freed
    with the last holder; ``materialize`` hands out a fresh list.
    """

    __slots__ = ("key", "_forward", "__weakref__")

    def __init__(self, key: int, m: int) -> None:
        super().__init__(m)
        self.key = key & _MASK64
        self._forward: bytes | None = None

    def _build(self) -> bytes:
        m = self.m
        # Swap in a list (faster indexing), store compactly.
        forward = list(range(m))
        if m <= _LEHMER_MAX:
            # One PRF word -> Lehmer code -> Fisher-Yates swap sequence.
            x = (self.key + _GOLDEN) & _MASK64
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
            r = ((x ^ (x >> 31)) * _FACTORIALS[m]) >> 64
            for i in range(m - 1, 0, -1):
                r, j = divmod(r, i + 1)
                forward[i], forward[j] = forward[j], forward[i]
        elif _kernels._np is not None:
            swaps = _kernels.fisher_yates_indices([self.key], m)[0].tolist()
            for i, j in zip(range(m - 1, 0, -1), swaps):
                forward[i], forward[j] = forward[j], forward[i]
        else:
            key = self.key
            for i in range(m - 1, 0, -1):
                x = (key + i * _GOLDEN) & _MASK64
                x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
                j = ((x ^ (x >> 31)) * (i + 1)) >> 64
                forward[i], forward[j] = forward[j], forward[i]
        table = self._forward = bytes(forward)
        return table

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.m:
            raise IndexError(f"index {i} out of range for permutation of {self.m}")
        forward = self._forward
        return forward[i] if forward is not None else self._build()[i]

    def index_of(self, x: int) -> int:
        if not 0 <= x < self.m:
            raise IndexError(f"index {x} out of range for permutation of {self.m}")
        forward = self._forward
        return (forward if forward is not None else self._build()).index(x)

    def materialize(self) -> list[int]:
        forward = self._forward
        return list(forward if forward is not None else self._build())


#: The live small permutations by key.  Every party holding a key gets the
#: one instance; an entry dies with its last holder.
_shared: weakref.WeakValueDictionary[int, SmallPermutation] = (
    weakref.WeakValueDictionary()
)


def make_permutation(key: int, m: int) -> Permutation:
    """The permutation of ``range(m)`` keyed by ``key``.

    Picks the back-end by size: a materialized table up to
    :data:`SMALL_THRESHOLD`, the lazy Feistel network above it.  The
    *values* differ between back-ends, but the choice is a deterministic
    function of ``m``, so both protocol parties always agree.  A small
    permutation is shared: while anyone holds the one for ``key``, every
    later call with that key and ``m`` returns the same object.
    """
    if m <= SMALL_THRESHOLD:
        key &= _MASK64
        perm = _shared.get(key)
        if perm is None or perm.m != m:
            perm = _shared[key] = SmallPermutation(key, m)
        return perm
    return FeistelPermutation(key, m)


def prebuild_permutations(keys: list[int], m: int) -> list[SmallPermutation]:
    """``[make_permutation(key, m) for key in keys]`` with the tables built.

    For ``12 < m ≤ SMALL_THRESHOLD`` with the numpy kernels active: every
    table not already built comes out of one
    :func:`~repro.rand.kernels.fisher_yates_tables` pass instead of one
    swap loop per key.  Live shared entries are reused and new ones are
    registered, so a later :func:`make_permutation` with any of these keys
    returns the same object while the caller holds the list.
    """
    perms = []
    pending = []
    get = _shared.get
    for key in keys:
        perm = get(key)
        if perm is None or perm.m != m:
            perm = _shared[key] = SmallPermutation(key, m)
        if perm._forward is None:
            pending.append(perm)
        perms.append(perm)
    tables = _kernels.fisher_yates_tables([perm.key for perm in pending], m)
    for perm, table in zip(pending, tables):
        perm._forward = table
    return perms
