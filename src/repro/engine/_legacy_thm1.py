"""Frozen pre-pooling snapshot of the Theorem 1 lockstep path.

This module is a benchmark fixture, not production code.  It preserves the
comm layer and the protocol hot loops exactly as they were before the
pooled count wire landed:

* a fresh ``Msg`` dataclass instance per send (no ``__slots__``, no
  interning beyond the cached empty message);
* a delegate generator per ``ch.send`` exchange (no ``post``/``unwrap``);
* fresh per-key sub-channel objects and a fresh batch dict per parallel
  round (no buffer pooling, no batch reuse);
* one per-vertex sampler closure per Color-Sample instance;
* eagerly materialized guess schedules in Algorithm 3.

``bench --compare-transports`` times :func:`run_vertex_coloring_legacy` as
the "before" side of the Theorem 1 row and the regression guard compares
the pooled count path against it — the same role
:class:`repro.rand.LegacyTape` plays for ``bench --rand``.  Do not
optimize anything here; its entire value is staying slow in the old,
measured way while producing bit-for-bit the same transcript.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from contextlib import contextmanager
from typing import Any, Callable, Generator, Hashable, Iterator, Mapping, Tuple

from ..comm.bits import bitmap_cost, gamma_cost, uint_cost
from ..comm.codecs import Codec, edge_list_codec, encode_color_vector
from ..comm.ledger import Transcript
from ..comm.transport import ProtocolDesyncError
from ..core.d1lc import (
    _induced_on,
    _instance_codec,
    _pack_colors,
    _unpack_colors,
    _verdict_codec,
    sample_list_size,
    sparsity_threshold,
)
from ..core.random_color_trial import paper_iteration_count
from ..core.slack import SAMPLING_CONSTANT, guess_schedule, sampling_probability
from ..core.vertex_coloring import (
    PHASE_LEFTOVER,
    PHASE_TRIAL,
    VertexColoringResult,
    leftover_graph,
    leftover_lists,
)
from ..coloring.greedy import greedy_d1lc_coloring
from ..coloring.list_coloring import solve_list_coloring
from ..graphs.partition import EdgePartition
from ..rand import Stream

__all__ = ["run_vertex_coloring_legacy"]

_SENTINEL = object()


# ---------------------------------------------------------------------------
# legacy messages (plain dataclasses, no slots, no interning)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _LegacyMsg:
    nbits: int
    payload: Any = None

    def __post_init__(self) -> None:
        if self.nbits < 0:
            raise ValueError(f"message size must be non-negative, got {self.nbits}")


_EMPTY_MSG = _LegacyMsg(0, None)


@dataclass(frozen=True)
class _LegacyBatchMsg:
    parts: dict[Any, _LegacyMsg] = field(default_factory=dict)

    @property
    def nbits(self) -> int:
        return sum(msg.nbits for msg in self.parts.values())


# ---------------------------------------------------------------------------
# legacy channel + lockstep transport (fresh allocation everywhere)
# ---------------------------------------------------------------------------


def _start(gen: Generator) -> tuple[Any, Any]:
    try:
        return next(gen), _SENTINEL
    except StopIteration as stop:
        return None, stop.value


class _LegacyChannel:
    """The pre-pooling lockstep channel, verbatim."""

    __slots__ = ("_phases",)

    def __init__(self) -> None:
        self._phases: list[str] = []

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        self._phases.append(name)
        try:
            yield
        finally:
            self._phases.pop()

    def send(self, nbits: int, payload: Any = None, codec: Codec | None = None):
        reply = yield (
            _EMPTY_MSG if nbits == 0 and payload is None else _LegacyMsg(nbits, payload)
        )
        return reply.payload

    def recv(self):
        reply = yield _EMPTY_MSG
        return reply.payload

    def parallel(self, subprotocols: Mapping[Hashable, Any]):
        results: dict[Hashable, Any] = {}
        live: dict[Hashable, Generator] = {}
        outgoing: dict[Hashable, Any] = {}
        for key, factory in subprotocols.items():
            gen = factory(self._sub()) if callable(factory) else factory
            item, result = _start(gen)
            if item is None:
                results[key] = result
            else:
                live[key] = gen
                outgoing[key] = item
        part = self._part
        while live:
            incoming = yield self._batch(outgoing)
            outgoing = {}
            for key in list(live):
                try:
                    outgoing[key] = live[key].send(part(incoming, key))
                except StopIteration as stop:
                    results[key] = stop.value
                    del live[key]
        return results

    def _sub(self) -> "_LegacyChannel":
        sub = _LegacyChannel()
        sub._phases = self._phases
        return sub

    def _batch(self, parts: dict) -> _LegacyBatchMsg:
        return _LegacyBatchMsg(parts)

    def _part(self, incoming: Any, key: Hashable) -> _LegacyMsg:
        if not isinstance(incoming, _LegacyBatchMsg):
            raise TypeError(
                "parallel composition expects BatchMsg from peer, "
                f"got {type(incoming).__name__}"
            )
        return incoming.parts.get(key, _EMPTY_MSG)


def _legacy_run(
    alice: Callable[[_LegacyChannel], Generator],
    bob: Callable[[_LegacyChannel], Generator],
    transcript: Transcript,
) -> Tuple[Any, Any, Transcript]:
    """The pre-pooling lockstep round loop (record_round every round)."""
    a_ch = _LegacyChannel()
    b_ch = _LegacyChannel()
    a_gen = alice(a_ch)
    b_gen = bob(b_ch)

    record = transcript.record_round
    a_phases = a_ch._phases
    b_phases = b_ch._phases

    a_item, a_result = _start(a_gen)
    b_item, b_result = _start(b_gen)
    a_done = a_item is None
    b_done = b_item is None
    a_send = a_gen.send
    b_send = b_gen.send
    while True:
        if a_done or b_done:
            if a_done and b_done:
                return a_result, b_result, transcript
            lagging = "Bob" if a_done else "Alice"
            raise ProtocolDesyncError(
                f"{lagging} wants another round after round "
                f"{transcript.rounds}, but the peer already terminated"
            )
        if a_phases or b_phases:
            if a_phases != b_phases:
                raise ProtocolDesyncError(
                    f"phase schedules disagree in round {transcript.rounds}: "
                    f"Alice {a_phases!r} vs Bob {b_phases!r}"
                )
            record(a_item.nbits, b_item.nbits, tuple(a_phases))
        else:
            record(a_item.nbits, b_item.nbits)
        incoming_for_bob = a_item
        try:
            a_item = a_send(b_item)
        except StopIteration as stop:
            a_result = stop.value
            a_done = True
        try:
            b_item = b_send(incoming_for_bob)
        except StopIteration as stop:
            b_result = stop.value
            b_done = True


# ---------------------------------------------------------------------------
# legacy protocol hot loops (delegate-generator sends, per-key closures)
# ---------------------------------------------------------------------------


def _slack_find(ch, ground, own, own_count=None, peer_count=None):
    from bisect import bisect_left

    lo, hi = 0, len(ground)
    if isinstance(ground, range) and ground.start == 0 and ground.step == 1:
        own_pos = sorted(e for e in own if 0 <= e < hi)
    else:
        own_pos = sorted(i for i, e in enumerate(ground) if e in own)
    if own_count is None or peer_count is None:
        own_count = len(own_pos)
        peer_count = yield from ch.send(uint_cost(len(ground)), own_count)
    slack = (hi - lo) - own_count - peer_count
    if slack < 1:
        raise ValueError("no guaranteed free element: |I| - a - b < 1")

    while hi - lo > 1:
        mid = (lo + hi) // 2
        own_left = bisect_left(own_pos, mid) - bisect_left(own_pos, lo)
        peer_left = yield from ch.send((mid - lo).bit_length(), own_left)
        left_slack = (mid - lo) - own_left - peer_left
        if left_slack >= 1:
            hi = mid
            slack = left_slack
        else:
            lo = mid
            slack = slack - left_slack
    return ground[lo]


def _randomized_slack(ch, m, own, pub, constant=SAMPLING_CONSTANT):
    if m < 1:
        raise ValueError(f"ground size must be positive, got {m}")
    own_in_range = -1
    for k_tilde in guess_schedule(m):
        sample = pub.sample_indices(m, sampling_probability(m, k_tilde, constant))
        if sample.__class__ is range:
            if own_in_range < 0:
                own_in_range = sum(1 for i in own if 0 <= i < m)
            own_count = own_in_range
        else:
            own_count = sum(1 for i in sample if i in own)
        peer_count = yield from ch.send(uint_cost(len(sample)), own_count)
        if own_count + peer_count < len(sample):
            result = yield from _slack_find(
                ch, sample, own, own_count=own_count, peer_count=peer_count
            )
            return result
    raise RuntimeError("Algorithm 3 exhausted its guesses")


def _color_sample(ch, num_colors, own_used, pub):
    if num_colors < 1:
        raise ValueError(f"palette must be non-empty, got {num_colors}")
    for c in own_used:
        if not 1 <= c <= num_colors:
            bad = sorted(x for x in own_used if not 1 <= x <= num_colors)
            raise ValueError(
                f"used colors outside palette [1..{num_colors}]: {bad[:3]}"
            )
    perm = pub.permutation(num_colors)
    own_positions = {perm.index_of(c - 1) for c in own_used}
    position = yield from _randomized_slack(ch, num_colors, own_positions, pub)
    return perm[position] + 1


def _random_color_trial(ch, own_graph, num_colors, pub, max_iterations):
    n = own_graph.n
    iterations = paper_iteration_count(n) if max_iterations is None else max_iterations
    colors: dict[int, int] = {}
    active = list(range(n))

    for iteration in range(iterations):
        if not active:
            break
        flips = pub.coins(len(active), 0.5)
        awake = [v for v, f in zip(active, flips) if f]
        if not awake:
            continue

        iter_base = pub.derive("rct", iteration)
        samplers = {}
        for v in awake:
            own_used = own_graph.neighbor_colors(v, colors)
            samplers[v] = (
                lambda sub, used=own_used, tape=iter_base.derive(v):
                _color_sample(sub, num_colors, used, tape)
            )
        chosen: dict[int, int] = yield from ch.parallel(samplers)

        awake_set = set(awake)
        awake_packed = own_graph.pack_vertices(awake)
        own_ok = tuple(
            all(
                chosen[u] != chosen[v]
                for u in own_graph.neighbors_in(v, awake_packed)
            )
            for v in awake
        )
        peer_ok = yield from ch.send(bitmap_cost(len(awake)), own_ok)

        still_active = []
        for idx, v in enumerate(awake):
            if own_ok[idx] and peer_ok[idx]:
                colors[v] = chosen[v]
            else:
                still_active.append(v)
        awake_survivors = set(still_active)
        active = [v for v in active if v not in awake_set or v in awake_survivors]

    return colors, active


def _d1lc(ch, role, own_graph, own_lists, active, num_colors, pub, rng):
    active = sorted(active)
    n_active = len(active)
    if n_active == 0:
        return {}
    m = num_colors
    palette = set(range(1, m + 1))

    ell = sample_list_size(n_active)
    samplers = {}
    for v in active:
        own_complement = palette - set(own_lists[v])
        v_base = pub.derive("d1lc", v)
        for j in range(ell):
            samplers[(v, j)] = (
                lambda sub, used=own_complement, tape=v_base.derive(j):
                _color_sample(sub, m, used, tape)
            )
    draws = yield from ch.parallel(samplers)
    sampled: dict[int, set[int]] = {v: set() for v in active}
    for (v, _j), color in draws.items():
        sampled[v].add(color)

    surviving = [
        (u, v) for u, v in own_graph.edges() if sampled[u] & sampled[v]
    ]

    n = own_graph.n
    edge_width = 2 * uint_cost(max(n - 1, 1))

    if role == "bob":
        cost = gamma_cost(len(surviving) + 1) + len(surviving) * edge_width
        yield from ch.send(cost, tuple(surviving), codec=edge_list_codec(n))
        tag, packed = yield from ch.recv()
        if tag == "ok":
            return _unpack_colors(packed, active)
        edges = tuple(own_graph.edges())
        lists = tuple((v, tuple(sorted(own_lists[v]))) for v in active)
        cost = (
            gamma_cost(len(edges) + 1)
            + len(edges) * edge_width
            + n_active * m
        )
        yield from ch.send(cost, (edges, lists), codec=_instance_codec(n, m))
        final = yield from ch.recv()
        return _unpack_colors(final, active)

    peer_edges = yield from ch.recv()
    sparse = type(own_graph)(n, list(surviving) + list(peer_edges))
    colors: dict[int, int] | None = None
    if sparse.m <= sparsity_threshold(n_active):
        induced_sparse = _induced_on(sparse, active)
        induced_lists = {idx: sampled[v] for idx, v in enumerate(active)}
        local = solve_list_coloring(induced_sparse, induced_lists, rng)
        if local is not None:
            colors = {active[idx]: c for idx, c in local.items()}
    if colors is not None:
        yield from ch.send(
            1 + n_active * uint_cost(m),
            ("ok", _pack_colors(colors, active)),
            codec=_verdict_codec(m),
        )
        return colors

    yield from ch.send(1, ("fallback", None), codec=_verdict_codec(m))
    bob_edges, bob_lists_packed = yield from ch.recv()
    full = type(own_graph)(n, list(own_graph.edges()) + list(bob_edges))
    merged_lists = {v: set(own_lists[v]) & set(blist) for v, blist in bob_lists_packed}
    induced = _induced_on(full, active)
    local_lists = {idx: merged_lists[v] for idx, v in enumerate(active)}
    local_colors = greedy_d1lc_coloring(induced, local_lists)
    colors = {active[idx]: c for idx, c in local_colors.items()}
    yield from ch.send(
        n_active * uint_cost(m),
        _pack_colors(colors, active),
        codec=lambda p: encode_color_vector(p, m),
    )
    return colors


def _vertex_coloring(ch, role, own_graph, num_colors, pub, rng, trial_cap):
    with ch.phase(PHASE_TRIAL):
        colors, active = yield from _random_color_trial(
            ch, own_graph, num_colors, pub, trial_cap
        )
    leftover_size = len(active)
    if active:
        pub_leftover = pub.derive("d1lc-phase")
        with ch.phase(PHASE_LEFTOVER):
            final = yield from _d1lc(
                ch,
                role,
                leftover_graph(own_graph, active),
                leftover_lists(own_graph, colors, active, num_colors),
                active,
                num_colors,
                pub_leftover,
                rng,
            )
        colors.update(final)
    return colors, leftover_size


def run_vertex_coloring_legacy(
    partition: EdgePartition,
    seed: int = 0,
    max_trial_iterations: int | None = None,
    rand: Stream | None = None,
) -> VertexColoringResult:
    """Theorem 1 end-to-end on the frozen pre-pooling lockstep machinery.

    Same seeds, same draws, same schedule as
    :func:`repro.core.run_vertex_coloring` — the result (coloring and
    transcript aggregates) must be bit-for-bit identical; only the comm
    simulation machinery differs.  ``rand``/``seed`` mirror the modern
    driver's stream-native signature.
    """
    n = partition.n
    delta = partition.max_degree
    num_colors = delta + 1
    transcript = Transcript()

    if delta == 0:
        colors = {v: 1 for v in range(n)}
        return VertexColoringResult(colors, transcript, num_colors, 0, 0)

    cap = (
        paper_iteration_count(n)
        if max_trial_iterations is None
        else max_trial_iterations
    )

    root = rand if rand is not None else Stream.from_seed(seed)
    pub_alice = root.derive("public")
    pub_bob = root.derive("public")
    rng_alice = root.derive_random("alice-private")
    rng_bob = root.derive_random("bob-private")

    (a_colors, a_leftover), (b_colors, b_leftover), _ = _legacy_run(
        lambda ch: _vertex_coloring(
            ch, "alice", partition.alice_graph, num_colors, pub_alice, rng_alice, cap
        ),
        lambda ch: _vertex_coloring(
            ch, "bob", partition.bob_graph, num_colors, pub_bob, rng_bob, cap
        ),
        transcript,
    )
    if a_colors != b_colors or a_leftover != b_leftover:
        raise AssertionError("parties disagree on the coloring")

    return VertexColoringResult(a_colors, transcript, num_colors, a_leftover, cap)
