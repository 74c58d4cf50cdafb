"""Vectorized numpy kernels for the :class:`~repro.rand.Stream` hot paths.

The pure-Python draw loops in :mod:`repro.rand.core` / :mod:`.perm` /
:mod:`.sampling` are the **golden reference**; every kernel here must
produce byte-identical output (values *and* words consumed) and is pinned
against them by golden digests plus randomized cross-backend fuzz in
``tests/test_rand_kernels.py``.  The kernels only change *how fast* a
batch is drawn, never *what* is drawn, so a sweep's artifacts stay
canonical whether or not numpy is importable.

Gating: if numpy is missing — or ``REPRO_NO_NUMPY=1`` is set — ``_np``
stays ``None`` and every dispatch site falls back to the pure loops.
Dispatch is size-thresholded (:data:`MIN_BATCH`, :data:`FEISTEL_MIN_BATCH`)
because tiny batches are dominated by array-construction overhead.

Bit-for-bit subtleties the implementations guard:

* uint64 wraparound is the *desired* semantics (SplitMix64 is mod-2^64
  arithmetic).  Array arithmetic wraps without a warning (only
  scalar-by-scalar ops warn), so the SplitMix pass runs without an
  ``np.errstate``; the remaining ``errstate(over="ignore")`` blocks are
  defensive.
* The Lemire ``ints`` map needs the high 64 bits of a 64×64 product;
  numpy has no 128-bit integers, so :func:`_mulhi` decomposes into 32-bit
  halves (every intermediate provably fits uint64).
* Word→bit unpacking goes through ``astype("<u8")`` so the byte order
  matches ``int.to_bytes(8, "little")`` on any host endianness.
* ``np.log`` (SIMD) may differ from ``math.log`` (libm) by a few ulps.
  For geometric gaps the float is truncated to an integer, so only draws
  *suspiciously close* to an integer boundary can disagree; those few are
  recomputed with ``math.log`` — the reference — before truncation.
"""

from __future__ import annotations

import math
import os

__all__ = [
    "FAIR_MIN_BATCH",
    "FEISTEL_MIN_BATCH",
    "FISHER_YATES_BLOCK",
    "MIN_BATCH",
    "available",
    "disabled",
    "fisher_yates_indices",
    "fisher_yates_tables",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_TWO53 = 9007199254740992.0

#: Batches below this size stay on the pure-Python loops: array setup and
#: the final ``tolist`` overhead beat the vector win for small k.  At the
#: threshold the kernels measure ~3x on one-word-per-draw ops (biased
#: coins, ints) and grow to ~10-30x by a few thousand draws.
MIN_BATCH = 128

#: Fair coins are already packed 64 to a word in pure Python, so the
#: kernel only wins once the word batch itself is large.
FAIR_MIN_BATCH = 2048

#: Keys per Fisher–Yates table block: bounds the transient uint64 index
#: arrays (three of ``b·(m−1)`` words) to a few MB, so a batch of 50k
#: palette tables does not raise the peak RSS of the run building them.
FISHER_YATES_BLOCK = 4096

#: Feistel batch evaluation threshold: the cycle-walk loop costs a few
#: fancy-indexing passes per call, so small query sets stay scalar.
FEISTEL_MIN_BATCH = 256


def _load_numpy():
    """Import numpy unless the escape hatch ``REPRO_NO_NUMPY=1`` is set."""
    if os.environ.get("REPRO_NO_NUMPY"):
        return None
    try:
        import numpy
    except ImportError:
        return None
    return numpy


_np = _load_numpy()

#: The SplitMix64 avalanche operands as uint64 scalars, built once.
_MIX = (
    None
    if _np is None
    else tuple(
        _np.uint64(c) for c in (30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31)
    )
)


def available() -> bool:
    """Whether the numpy backend is importable and not disabled."""
    return _np is not None


class disabled:
    """Context manager forcing the pure-Python paths (tests / benchmarks)."""

    def __enter__(self):
        global _np
        self._saved = _np
        _np = None
        return self

    def __exit__(self, *exc):
        global _np
        _np = self._saved
        return False


# ---------------------------------------------------------------------------
# SplitMix64 word generation
# ---------------------------------------------------------------------------


def _mix_inplace(np, x):
    """The SplitMix64 avalanche over a uint64 array, in place."""
    s30, m1, s27, m2, s31 = _MIX
    x ^= x >> s30
    x *= m1
    x ^= x >> s27
    x *= m2
    x ^= x >> s31
    return x


def _words(np, key: int, counter: int, k: int):
    """PRF words at counters ``counter+1 .. counter+k`` as a uint64 array."""
    idx = np.arange(counter + 1, counter + k + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = np.uint64(key) + idx * np.uint64(_GOLDEN)
    return _mix_inplace(np, x)


def _mulhi(np, x, mult: int):
    """High 64 bits of ``x * mult`` per element (the Lemire range map).

    32-bit schoolbook decomposition; every intermediate fits uint64
    (checked in the tests across the extreme widths).
    """
    c32 = np.uint64(32)
    m32 = np.uint64(0xFFFFFFFF)
    y0 = np.uint64(mult & 0xFFFFFFFF)
    y1 = np.uint64(mult >> 32)
    x0 = x & m32
    x1 = x >> c32
    with np.errstate(over="ignore"):
        lo_lo = x0 * y0
        mid1 = x1 * y0 + (lo_lo >> c32)
        mid2 = x0 * y1 + (mid1 & m32)
        return x1 * y1 + (mid1 >> c32) + (mid2 >> c32)


# ---------------------------------------------------------------------------
# batch draw kernels (mirror Stream.coins / Stream.ints / sampling)
# ---------------------------------------------------------------------------


def fair_coins(key: int, counter: int, k: int) -> tuple[list[bool], int]:
    """``k`` fair coins, 64 packed per word — mirrors ``Stream.coins(k, 0.5)``.

    Returns ``(flips, words_consumed)``.
    """
    np = _np
    nwords = (k + 63) >> 6
    w = _words(np, key, counter, nwords)
    # "<u8" fixes the byte order to little-endian before the uint8 view, so
    # bit i of word j lands at flat position 64*j + i exactly like the pure
    # path's to_bytes(8, "little") + LSB-first byte table.
    bits = np.unpackbits(w.astype("<u8").view(np.uint8), bitorder="little")
    return bits[:k].astype(bool).tolist(), nwords


def biased_coins(
    key: int, counter: int, k: int, threshold: int
) -> tuple[list[bool], int]:
    """``k`` biased coins at one word each — mirrors ``Stream.coins(k, p)``.

    ``threshold`` is the caller-computed ``int(p * 2**53)``; the caller
    guarantees ``0 <= threshold < 2**64`` (out-of-range p falls back to
    the pure loop, which handles it with bigint compares).
    """
    np = _np
    w = _words(np, key, counter, k)
    return ((w >> np.uint64(11)) < np.uint64(threshold)).tolist(), k


def ints(
    key: int, counter: int, k: int, low: int, width: int
) -> tuple[list[int], int]:
    """``k`` uniform ints in ``[low, low+width)`` — mirrors ``Stream.ints``.

    Caller guarantees ``1 <= width < 2**64``.
    """
    np = _np
    w = _words(np, key, counter, k)
    hi = _mulhi(np, w, width)
    if width <= (1 << 63) and -(1 << 63) <= low and low + width <= (1 << 63):
        # Everything representable in int64: add in numpy, one C tolist.
        out = (hi.astype(np.int64) + np.int64(low)).tolist()
    else:
        # Extreme ranges: exact Python adds on the (exact) uint64 values.
        out = [low + v for v in hi.tolist()]
    return out, k


def geometric(key: int, counter: int, m: int, p: float) -> tuple[list[int], int]:
    """Geometric gap-skipping Bernoulli sample — mirrors ``geometric_indices``.

    Caller guarantees ``0 < p < 1`` and ``m > 0``.  Returns the sorted
    included indices and the words consumed (one per index + the final
    overshoot word).
    """
    np = _np
    inv_log_q = 1.0 / math.log1p(-p)
    out: list[int] = []
    i = 0
    consumed = 0
    while True:
        expect = p * (m - i)
        batch = max(32, int(expect + 8.0 * math.sqrt(expect + 1.0)) + 8)
        w = _words(np, key, counter + consumed, batch)
        # u on (0, 1] exactly as the pure path: (word >> 11) < 2^53 is
        # exactly representable, +1.0 and the power-of-two divide are exact.
        u = ((w >> np.uint64(11)).astype(np.float64) + 1.0) / _TWO53
        x = np.log(u) * inv_log_q
        # Gaps beyond m overshoot regardless; clamping keeps int64 safe for
        # pathologically tiny p without changing the cutoff position.
        x = np.minimum(x, float(m))
        gaps = x.astype(np.int64)
        # ulp fixup: np.log and math.log may round differently; only draws
        # within ~1e-12 relative of an integer boundary can truncate
        # differently, and those are recomputed with the reference libm.
        frac = x - np.floor(x)
        tol = 1e-12 * (np.abs(x) + 1.0)
        suspicious = np.nonzero((frac < tol) | (1.0 - frac < tol))[0]
        for j in suspicious.tolist():
            gaps[j] = min(int(math.log(float(u[j])) * inv_log_q), m)
        positions = np.cumsum(gaps) + np.arange(len(gaps), dtype=np.int64) + i
        hits = np.nonzero(positions >= m)[0]
        if hits.size:
            cut = int(hits[0])
            out.extend(positions[:cut].tolist())
            return out, consumed + cut + 1
        out.extend(positions.tolist())
        i = int(positions[-1]) + 1
        consumed += batch


def dense_mask(m: int, indices) -> list[bool]:
    """Dense boolean mask over ``range(m)`` from sorted included indices."""
    np = _np
    mask = np.zeros(m, dtype=bool)
    if len(indices):
        mask[np.asarray(indices, dtype=np.int64)] = True
    return mask.tolist()


# ---------------------------------------------------------------------------
# small-m Fisher–Yates tables (mirror SmallPermutation._build)
# ---------------------------------------------------------------------------

#: ``(i·GOLDEN, i+1)`` for ``i = M−1 … 1`` as uint64 columns; an ``m ≤ M``
#: table takes the last ``m − 1`` rows.  Grown on demand.
_fy_steps = None
_fy_bounds = None


def fisher_yates_indices(keys, m: int):
    """The swap targets ``j_i = mulhi(mix64(key + i·GOLDEN), i+1)`` for
    ``i = m−1 … 1``, one row per key — one SplitMix64 pass over all
    ``k·(m − 1)`` words.

    Returns a ``(k, m − 1)`` int64 array whose column ``c`` is step
    ``i = m − 1 − c``; it is a transposed view, so each column (one step
    over every key) is contiguous.  Every bound ``i + 1`` is below
    ``2^32``, so the high word of ``x · (i+1)`` needs only two 32-bit
    products: ``(x_hi·b + ((x_lo·b) >> 32)) >> 32``, and neither sum
    overflows.
    """
    global _fy_steps, _fy_bounds
    np = _np
    if _fy_steps is None or len(_fy_steps) < m - 1:
        i = np.arange(m - 1, 0, -1, dtype=np.uint64)[:, None]
        _fy_steps = i * np.uint64(_GOLDEN)
        _fy_bounds = i + np.uint64(1)
    start = len(_fy_steps) - (m - 1)
    bounds = _fy_bounds[start:]
    x = _fy_steps[start:] + np.asarray(keys, dtype=np.uint64)
    _mix_inplace(np, x)
    c32 = np.uint64(32)
    hi = x >> c32
    hi *= bounds
    x &= np.uint64(0xFFFFFFFF)
    x *= bounds
    x >>= c32
    hi += x
    hi >>= c32
    return hi.view(np.int64).T


def fisher_yates_tables(keys, m: int) -> list[bytes]:
    """The Fisher–Yates table of ``range(m)`` for every key, as ``bytes``.

    Mirrors the swap loop of ``SmallPermutation._build`` for
    ``12 < m ≤ 96`` (smaller tables decode a Lehmer code instead).  Each
    block of up to :data:`FISHER_YATES_BLOCK` keys is one ``(m, b)``
    ``uint8`` array whose columns are the tables, and step ``i`` swaps
    row ``i`` with rows ``j_i`` of every key in the block at once — four
    numpy operations per step, whatever the block size.
    """
    np = _np
    out: list[bytes] = []
    for start in range(0, len(keys), FISHER_YATES_BLOCK):
        block = keys[start : start + FISHER_YATES_BLOCK]
        k = len(block)
        swaps = fisher_yates_indices(block, m).T
        table = np.repeat(np.arange(m, dtype=np.uint8)[:, None], k, axis=1)
        cols = np.arange(k)
        for i, j in zip(range(m - 1, 0, -1), swaps):
            row = table[i].copy()
            table[i] = table[j, cols]
            table[j, cols] = row
        flat = table.T.tobytes()
        out.extend(flat[r : r + m] for r in range(0, k * m, m))
    return out


# ---------------------------------------------------------------------------
# batched Feistel evaluation (mirrors FeistelPermutation encrypt/decrypt)
# ---------------------------------------------------------------------------


def _feistel_rounds(np, x, half_bits: int, half_mask: int, round_keys, forward: bool):
    """One full pass of the 4-round network over a uint64 array."""
    h = np.uint64(half_bits)
    mask = np.uint64(half_mask)
    left = x >> h
    right = x & mask
    if forward:
        for rk in round_keys:
            with np.errstate(over="ignore"):
                f = _mix_inplace(np, np.uint64(rk) ^ right) & mask
            left, right = right, left ^ f
    else:
        for rk in reversed(round_keys):
            with np.errstate(over="ignore"):
                f = _mix_inplace(np, np.uint64(rk) ^ left) & mask
            left, right = right ^ f, left
    return (left << h) | right


def feistel_batch(perm, xs, forward: bool) -> list[int]:
    """Evaluate ``perm[x]`` (or ``index_of``) for every ``x`` in ``xs``.

    Cycle-walks the shrinking out-of-range subset exactly like the scalar
    loop: a walked value re-enters the network until it lands in
    ``[0, m)``, and walks are independent per element, so the vectorized
    result is identical by construction.
    """
    np = _np
    m = perm.m
    vals = np.asarray(list(xs), dtype=np.uint64)
    out = np.zeros(len(vals), dtype=np.int64)
    pending = np.arange(len(vals), dtype=np.int64)
    h, mask, keys = perm._half_bits, perm._half_mask, perm._round_keys
    while pending.size:
        vals = _feistel_rounds(np, vals, h, mask, keys, forward)
        done = vals < np.uint64(m)
        out[pending[done]] = vals[done].astype(np.int64)
        keep = ~done
        pending = pending[keep]
        vals = vals[keep]
    return out.tolist()
