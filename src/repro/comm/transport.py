"""The Channel/Transport API: session objects over pluggable lockstep cores.

This module is the one protocol API of the two-party simulator.  A
*channel protocol* is a generator function taking a :class:`Channel` as its
first argument and speaking through it:

* ``reply_payload = yield from ch.send(nbits, payload)`` — one simultaneous
  exchange; the declared cost comes from :mod:`repro.comm.bits` exactly as
  before;
* ``reply = ch.unwrap((yield ch.post(nbits, payload)))`` — the zero-overhead
  spelling of ``send`` for the hottest inner loops: ``post`` builds the wire
  item (and commits the declared cost) without spinning up a delegate
  generator per exchange, the protocol yields it directly, and ``unwrap``
  recovers the peer's payload from the raw wire reply;
* ``reply = yield from ch.exchange(msg)`` — the :class:`Msg`-level variant
  for callers that want the peer's declared size too (both parties must use
  ``exchange`` in that round: the schedule is common knowledge);
* ``with ch.phase("gather"):`` — phase scoping; the transport attributes
  every round recorded inside the block to the named phase (both parties
  must be in identical phase stacks each round — a mismatch is a desync);
* ``results = yield from ch.parallel({key: spec})`` — keyed sub-channels
  sharing rounds (the round cost is the max over sub-protocols, the bit
  cost the sum).  A spec is a factory ``factory(sub) -> generator`` or a
  *spec tuple* ``(proto, arg1, ...)`` invoked as ``proto(sub, arg1, ...)``
  (cheaper than building one closure per key in per-vertex fan-outs).
  ``Transport.run`` takes the same two forms for Alice and Bob; anything
  else (notably an already-built generator) raises ``TypeError``.

Behind the channel sit three transports sharing one
:class:`~repro.comm.ledger.Transcript` contract:

* :class:`LockstepTransport` — reference semantics: every message is a real
  :class:`Msg`/:class:`BatchMsg`, every parallel round allocates fresh
  scaffolding, and the per-round log is kept.  This transport is
  deliberately *not* pooled: it is the fresh-allocation reference the
  pooled count path is checked against (bit-for-bit) and benchmarked
  against (``--compare-transports``).
* :class:`CountOnlyTransport` — the allocation-free fast path for large
  sweeps: payloads travel bare on the wire (no ``Msg``, no per-send
  tuples), declared bits accumulate in an integer tally on the channel,
  parallel composition reuses pooled batch buffers across rounds, and the
  ledger is updated per contiguous phase segment — while producing
  bit-for-bit identical transcript aggregates.
* :class:`StrictTransport` — always-on verification: every payload is
  encoded through :mod:`repro.comm.codecs` and its declared ``nbits`` must
  equal the encoded length, turning the sampled codec tests into a
  transport mode.

Pooling & object lifetimes (count transport)
--------------------------------------------

The count wire recycles exactly one kind of object: the keyed batch dicts
that ``parallel`` yields each round.  Two buffers are checked out of the
channel's freelist per ``parallel`` invocation and alternated
(double-buffered) across rounds.  The transport's round loop advances the
*sending* party before the *receiving* party consumes its previous item, so
a batch yielded in round ``r`` may still be in flight while round ``r+1``
is being built — double-buffering makes that safe, and on exit the
last-yielded buffer is dropped to the garbage collector rather than
recycled (it may still be in flight), while the other buffer returns to the
freelist.  Payloads themselves are never pooled: whatever a sub-protocol
receives it may retain forever.  ``Msg`` objects on the lockstep/strict
wire are frozen and may be *interned* (shared), never recycled — see
:func:`repro.comm.messages.intern_msg`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Generator, Hashable, Iterator, Mapping, Tuple

from . import telemetry as _telemetry
from .codecs import Codec, verify_declared_cost
from .ledger import Transcript
from .messages import EMPTY_MSG, BatchMsg, Msg, intern_msg

__all__ = [
    "Channel",
    "CountOnlyTransport",
    "LockstepTransport",
    "ProtocolDesyncError",
    "StrictTransport",
    "TRANSPORTS",
    "Transport",
    "resolve_transport",
]


class ProtocolDesyncError(RuntimeError):
    """Raised when Alice's and Bob's round (or phase) schedules disagree."""


#: What ``Transport.run`` accepts per party: a factory taking the party's
#: channel or a spec tuple ``(proto, args...)`` — the same forms
#: ``Channel.parallel`` accepts for sub-protocols.
PartyLike = Any

_SENTINEL = object()

#: Count-wire "party finished" marker.  The ``Msg`` wire can use ``None``
#: (a channel never yields it), but on the bare-payload wire ``None`` is a
#: legitimate item (silence), so termination needs a distinct sentinel.
_DONE = object()


def _start(gen: Generator) -> tuple[Any, Any]:
    """Advance a party to its first yield; return (wire item, result)."""
    try:
        return next(gen), _SENTINEL
    except StopIteration as stop:
        return None, stop.value


def _start_bare(gen: Generator) -> tuple[Any, Any]:
    """`_start` for the bare-payload wire, using the ``_DONE`` sentinel."""
    try:
        return next(gen), _SENTINEL
    except StopIteration as stop:
        return _DONE, stop.value


def _spawn(spec: Any, sub: "Channel") -> Generator:
    """Instantiate one protocol from its spec on channel ``sub``."""
    if type(spec) is tuple:
        return spec[0](sub, *spec[1:])
    if callable(spec):
        return spec(sub)
    raise TypeError(
        "a protocol spec is a factory taking the channel or a "
        f"(proto, args...) tuple, got {type(spec).__name__}"
    )


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


class Channel:
    """One party's session handle onto a transport.

    Concrete subclasses fix the wire representation (``Msg`` objects for
    the lockstep/strict transports, bare payloads for the count-only
    transport); protocols only ever talk to this interface, so one
    protocol definition runs on every transport.
    """

    __slots__ = ("_phases",)

    def __init__(self) -> None:
        self._phases: list[str] = []

    # -- phase scoping ----------------------------------------------------

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute every round exchanged inside the block to ``name``.

        Phase stacks are part of the common-knowledge schedule: the
        transport checks both parties agree on them each round.
        """
        self._phases.append(name)
        try:
            yield
        finally:
            self._phases.pop()

    # -- point-to-point exchanges ----------------------------------------

    def send(self, nbits: int, payload: Any = None, codec: Codec | None = None):
        """Exchange one message; returns the peer's same-round payload.

        ``codec`` is only consulted by the strict transport: it must
        encode ``payload`` into exactly ``nbits`` bits (simple integer
        and bitmap payloads are inferred automatically).
        """
        raise NotImplementedError

    def post(self, nbits: int, payload: Any = None, codec: Codec | None = None) -> Any:
        """Build the wire item for one outgoing message, committing its cost.

        The allocation-free spelling of :meth:`send` for hot loops::

            reply = ch.unwrap((yield ch.post(nbits, payload)))

        The declared cost is committed here, so the caller must yield the
        returned item in the same round (posting without yielding is a
        protocol bug).
        """
        raise NotImplementedError

    def unwrap(self, reply: Any) -> Any:
        """The peer's payload from a raw wire reply (see :meth:`post`)."""
        raise NotImplementedError

    def exchange(self, msg: Msg, codec: Codec | None = None):
        """Exchange one :class:`Msg`; returns the peer's :class:`Msg`.

        Both parties must speak ``Msg``-level in the same round: on the
        count wire the declared size does not travel on payload-level
        sends, so pairing ``exchange`` with a plain ``send`` is a schedule
        mismatch there.
        """
        raise NotImplementedError

    def recv(self):
        """Stay silent this round; returns the peer's payload."""
        raise NotImplementedError

    # -- keyed sub-channels (parallel composition) -----------------------

    def parallel(self, subprotocols: Mapping[Hashable, Any]):
        """Run keyed sub-protocols in parallel, sharing rounds.

        Each value is a factory called with a keyed sub-channel
        (``factory(sub) -> generator``) or a spec tuple ``(proto, args...)``
        invoked as ``proto(sub, *args)``.  The iteration's round cost is
        the max over live sub-protocols and its bit cost the sum, exactly
        as in the paper's parallel composition.
        Returns ``{key: sub-protocol return value}``.
        """
        results: dict[Hashable, Any] = {}
        live: dict[Hashable, Generator] = {}
        outgoing: dict[Hashable, Any] = {}
        for key, spec in subprotocols.items():
            gen = _spawn(spec, self._sub())
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

    def _sub(self) -> "Channel":
        """A keyed sub-channel: same wire flavor, shared phase stack."""
        sub = type(self)()
        sub._phases = self._phases
        return sub

    def _batch(self, parts: dict) -> Any:
        raise NotImplementedError

    def _part(self, incoming: Any, key: Hashable) -> Any:
        raise NotImplementedError


class LockstepChannel(Channel):
    """Reference wire flavor: every message is a real :class:`Msg`.

    Small messages are served from the intern tables (safe because ``Msg``
    is frozen); everything else — batches, sub-channel dicts — is freshly
    allocated every round, making this wire the reference the pooled count
    wire is validated against.
    """

    __slots__ = ()

    def send(self, nbits: int, payload: Any = None, codec: Codec | None = None):
        reply = yield intern_msg(nbits, payload)
        return reply.payload

    def post(self, nbits: int, payload: Any = None, codec: Codec | None = None) -> Msg:
        return intern_msg(nbits, payload)

    def unwrap(self, reply: Msg) -> Any:
        return reply.payload

    def exchange(self, msg: Msg, codec: Codec | None = None):
        reply = yield msg
        return reply

    def recv(self):
        reply = yield EMPTY_MSG
        return reply.payload

    def _batch(self, parts: dict) -> BatchMsg:
        return BatchMsg(parts)

    def _part(self, incoming: Any, key: Hashable) -> Msg:
        if not isinstance(incoming, BatchMsg):
            raise TypeError(
                "parallel composition expects BatchMsg from peer, "
                f"got {type(incoming).__name__}"
            )
        return incoming.parts.get(key, EMPTY_MSG)


class _CountBatch(dict):
    """Type tag for a count-wire parallel batch (a keyed payload dict).

    A bare ``dict`` subclass so the pooled parallel driver can tell a real
    batch from an arbitrary peer payload with one ``type`` check per round
    — the count-wire analogue of the ``isinstance(..., BatchMsg)`` desync
    guard.  Instances are pooled per channel; see the module docstring for
    the lifetime rules.
    """

    __slots__ = ()


class _MsgWire(tuple):
    """Count-wire item for :meth:`Channel.exchange`: ``(nbits, payload)``.

    Plain sends travel as bare payloads, so ``exchange`` — which must
    deliver the peer's *declared size* too — tags its item with this
    subclass.  Receiving anything else means the peer spoke payload-level
    in an ``exchange`` round: a schedule mismatch.
    """

    __slots__ = ()


class CountChannel(Channel):
    """Count-only wire flavor: bare payloads plus an integer bit tally.

    Nothing is allocated per send: the payload itself is the wire item and
    the declared cost accumulates in :attr:`pending_bits`, which the
    transport drains once per round.  Keyed parallel batches are pooled
    dicts (see the module docstring), and sub-channels are the channel
    itself — a ``CountChannel`` carries no per-exchange state beyond the
    shared tally and phase stack, so no per-key session objects exist at
    all.
    """

    __slots__ = ("pending_bits", "_pool")

    def __init__(self) -> None:
        super().__init__()
        #: Declared bits committed since the transport last drained the
        #: tally (i.e. this round's outgoing cost).
        self.pending_bits = 0
        self._pool: list[_CountBatch] = []

    def send(self, nbits: int, payload: Any = None, codec: Codec | None = None):
        if nbits > 0:
            self.pending_bits += nbits
        elif nbits < 0:
            raise ValueError(f"message size must be non-negative, got {nbits}")
        reply = yield payload
        return reply

    def post(self, nbits: int, payload: Any = None, codec: Codec | None = None) -> Any:
        if nbits > 0:
            self.pending_bits += nbits
        elif nbits < 0:
            raise ValueError(f"message size must be non-negative, got {nbits}")
        return payload

    def unwrap(self, reply: Any) -> Any:
        return reply

    def exchange(self, msg: Msg, codec: Codec | None = None):
        if msg.nbits:
            self.pending_bits += msg.nbits
        reply = yield _MsgWire((msg.nbits, msg.payload))
        if type(reply) is _MsgWire:
            return Msg(reply[0], reply[1])
        raise ProtocolDesyncError(
            "Msg-level exchange on the count wire requires the peer to use "
            "exchange in the same round (declared sizes do not travel on "
            "payload-level sends)"
        )

    def recv(self):
        reply = yield None
        return reply

    def parallel(self, subprotocols: Mapping[Hashable, Any]):
        """Pooled parallel composition (see the module docstring).

        Sub-channels are ``self`` (count channels hold no per-exchange
        state), outgoing batches are two freelist dicts alternated across
        rounds, and finished sub-protocols are compacted out of flat
        parallel key/generator lists in place — the per-round cost is one
        dict clear plus one ``gen.send`` per live sub-protocol.
        """
        results: dict[Hashable, Any] = {}
        live_keys: list[Hashable] = []
        live_gens: list[Generator] = []
        pool = self._pool
        if _telemetry.enabled:
            # One gated branch per parallel() invocation (not per round):
            # how many of the two checkout buffers came off the freelist.
            available = min(len(pool), 2)
            _telemetry.pool_reused += available
            _telemetry.pool_allocated += 2 - available
        outgoing = pool.pop() if pool else _CountBatch()
        spare = pool.pop() if pool else _CountBatch()
        for key, spec in subprotocols.items():
            gen = _spawn(spec, self)
            try:
                item = next(gen)
            except StopIteration as stop:
                results[key] = stop.value
            else:
                live_keys.append(key)
                live_gens.append(gen)
                outgoing[key] = item
        if not live_keys:
            # Nothing ever hit the wire: both buffers are still ours.
            pool.append(outgoing)
            pool.append(spare)
            return results
        while live_keys:
            incoming = yield outgoing
            if type(incoming) is not _CountBatch:
                raise TypeError(
                    "parallel composition expects a keyed batch from peer, "
                    f"got {type(incoming).__name__}"
                )
            # Alternate buffers: the batch just yielded may still be in
            # flight (the transport advances us before the peer consumes
            # it), but the one from two rounds ago has been delivered.
            outgoing, spare = spare, outgoing
            outgoing.clear()
            get = incoming.get
            write = 0
            n_live = len(live_keys)
            for read in range(n_live):
                key = live_keys[read]
                gen = live_gens[read]
                try:
                    item = gen.send(get(key))
                except StopIteration as stop:
                    results[key] = stop.value
                else:
                    outgoing[key] = item
                    if write != read:
                        live_keys[write] = key
                        live_gens[write] = gen
                    write += 1
            if write != n_live:
                del live_keys[write:]
                del live_gens[write:]
        # `spare` was yielded last round and may still be in flight to the
        # peer — drop it to the GC; `outgoing` is empty and fully ours.
        pool.append(outgoing)
        return results


class StrictChannel(LockstepChannel):
    """Lockstep wire flavor + codec verification on every outgoing message."""

    __slots__ = ()

    def send(self, nbits: int, payload: Any = None, codec: Codec | None = None):
        verify_declared_cost(nbits, payload, codec)
        reply = yield intern_msg(nbits, payload)
        return reply.payload

    def post(self, nbits: int, payload: Any = None, codec: Codec | None = None) -> Msg:
        verify_declared_cost(nbits, payload, codec)
        return intern_msg(nbits, payload)

    def exchange(self, msg: Msg, codec: Codec | None = None):
        verify_declared_cost(msg.nbits, msg.payload, codec)
        reply = yield msg
        return reply


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------


class Transport:
    """A lockstep execution core behind a pair of :class:`Channel` objects.

    All transports share the round loop (and therefore desync detection);
    subclasses fix the channel class, how a wire item's declared size is
    read, and the transcript configuration.
    """

    name = "abstract"
    channel_class: type[Channel] = Channel

    def new_transcript(self) -> Transcript:
        """A transcript configured for this transport's bookkeeping."""
        return Transcript()

    @staticmethod
    def _item_nbits(item: Any) -> int:
        raise NotImplementedError

    def run(
        self,
        alice: PartyLike,
        bob: PartyLike,
        transcript: Transcript | None = None,
    ) -> Tuple[Any, Any, Transcript]:
        """Run a channel-protocol pair to completion.

        ``alice``/``bob`` take the same spec forms as
        :meth:`Channel.parallel`: a factory called with the party's channel
        (``factory(ch) -> generator``) or a spec tuple ``(proto, args...)``
        invoked as ``proto(ch, *args)``.  Returns
        ``(alice_result, bob_result, transcript)``; raises
        :class:`ProtocolDesyncError` if the parties' round or phase
        schedules disagree.
        """
        if transcript is None:
            transcript = self.new_transcript()
        a_ch = self.channel_class()
        b_ch = self.channel_class()
        a_gen = _spawn(alice, a_ch)
        b_gen = _spawn(bob, b_ch)

        nbits = self._item_nbits
        record = transcript.record_round
        a_phases = a_ch._phases
        b_phases = b_ch._phases

        # The stepping is inlined (rather than routed through _start/_step)
        # because this loop runs once per round of every protocol in the
        # repo; the try/except costs nothing on the non-raising path.
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
                        f"phase schedules disagree in round "
                        f"{transcript.rounds}: Alice {a_phases!r} vs "
                        f"Bob {b_phases!r}"
                    )
                record(nbits(a_item), nbits(b_item), tuple(a_phases))
            else:
                record(nbits(a_item), nbits(b_item))
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


class LockstepTransport(Transport):
    """Current semantics: real ``Msg`` objects, full per-round log."""

    name = "lockstep"
    channel_class = LockstepChannel

    @staticmethod
    def _item_nbits(item: Any) -> int:
        return item.nbits


class CountOnlyTransport(Transport):
    """The allocation-free count path for large sweeps.

    Payloads travel bare on the wire; declared bits accumulate in each
    channel's integer tally, which this loop drains once per round (so a
    send allocates nothing — not even a pair).  Ledger updates are batched
    per contiguous phase segment instead of paying a
    :meth:`~repro.comm.ledger.Transcript.record_round` call every round;
    transcript aggregates (totals, rounds, messages, per-phase stats) are
    bit-for-bit identical to the lockstep transport's.
    """

    name = "count"
    channel_class = CountChannel

    def new_transcript(self) -> Transcript:
        return Transcript(record_log=False)

    def run(
        self,
        alice: PartyLike,
        bob: PartyLike,
        transcript: Transcript | None = None,
    ) -> Tuple[Any, Any, Transcript]:
        if transcript is None:
            transcript = Transcript(record_log=False)
        a_ch = CountChannel()
        b_ch = CountChannel()
        a_gen = _spawn(alice, a_ch)
        b_gen = _spawn(bob, b_ch)

        a_phases = a_ch._phases
        b_phases = b_ch._phases
        record_segment = transcript.record_segment

        a_item, a_result = _start_bare(a_gen)
        b_item, b_result = _start_bare(b_gen)
        a_done = a_item is _DONE
        b_done = b_item is _DONE
        a_send = a_gen.send
        b_send = b_gen.send

        # Contiguous rounds sharing one phase stack accumulate in locals
        # and flush in bulk — the hot loop's only per-round obligations are
        # draining the two bit tallies and the schedule checks.
        seg_phases: list[str] = []
        a2b = b2a = rounds = messages = 0
        while True:
            if a_done or b_done:
                if rounds:
                    record_segment(a2b, b2a, rounds, messages, tuple(seg_phases))
                if a_done and b_done:
                    return a_result, b_result, transcript
                lagging = "Bob" if a_done else "Alice"
                raise ProtocolDesyncError(
                    f"{lagging} wants another round after round "
                    f"{transcript.rounds}, but the peer already terminated"
                )
            if a_phases != b_phases:
                raise ProtocolDesyncError(
                    f"phase schedules disagree in round "
                    f"{transcript.rounds + rounds}: Alice {a_phases!r} vs "
                    f"Bob {b_phases!r}"
                )
            if a_phases != seg_phases:
                if rounds:
                    record_segment(a2b, b2a, rounds, messages, tuple(seg_phases))
                    a2b = b2a = rounds = messages = 0
                seg_phases = list(a_phases)
            # The tallies hold the bits committed while producing this
            # round's items (sends tally before they yield).
            bits = a_ch.pending_bits
            if bits:
                a_ch.pending_bits = 0
                a2b += bits
                messages += 1
            bits = b_ch.pending_bits
            if bits:
                b_ch.pending_bits = 0
                b2a += bits
                messages += 1
            rounds += 1
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


class StrictTransport(LockstepTransport):
    """Lockstep semantics + always-on codec verification.

    Every message's payload is encoded through :mod:`repro.comm.codecs`
    (via an explicit per-send codec or shape inference) and the declared
    ``nbits`` must equal the encoded length, else
    :class:`~repro.comm.codecs.CodecMismatchError` is raised at the
    offending send.
    """

    name = "strict"
    channel_class = StrictChannel


#: Transport registry: the CLI/engine ``--transport`` axis.  Transports are
#: stateless, so the registry holds shared instances.
TRANSPORTS: dict[str, Transport] = {
    "lockstep": LockstepTransport(),
    "count": CountOnlyTransport(),
    "strict": StrictTransport(),
}


def resolve_transport(transport: str | Transport | None) -> Transport:
    """Coerce a transport name (or ``None`` → lockstep) to an instance."""
    if transport is None:
        return TRANSPORTS["lockstep"]
    if isinstance(transport, Transport):
        return transport
    try:
        return TRANSPORTS[transport]
    except KeyError:
        raise ValueError(
            f"unknown transport {transport!r}; expected one of "
            f"{sorted(TRANSPORTS)}"
        ) from None
