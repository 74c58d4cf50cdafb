"""Transcript accounting: bits per direction, rounds, per-phase breakdown.

The :class:`Transcript` is the measurement instrument of the whole library.
Every run of a protocol produces one; every experiment in ``benchmarks/``
reports numbers read off it.  Phases let a composite protocol (e.g. the
Theorem 1 pipeline) attribute costs to its stages (random color trial,
sparsification, gather, ...).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

__all__ = ["PhaseStats", "Transcript"]


@dataclass
class PhaseStats:
    """Accumulated cost of one named phase of a protocol."""

    bits_alice_to_bob: int = 0
    bits_bob_to_alice: int = 0
    rounds: int = 0

    @property
    def total_bits(self) -> int:
        """Bits exchanged in both directions within the phase."""
        return self.bits_alice_to_bob + self.bits_bob_to_alice


class Transcript:
    """Mutable record of the communication cost of a protocol execution.

    ``record_log=False`` disables the per-round log (the raw material for
    round-profile experiments) while keeping every aggregate — totals,
    rounds, messages, per-phase stats — bit-for-bit identical.  The
    count-only transport uses it to skip the per-round list append on
    large sweeps.
    """

    def __init__(self, record_log: bool = True) -> None:
        self.bits_alice_to_bob = 0
        self.bits_bob_to_alice = 0
        self.rounds = 0
        self.messages = 0
        self.record_log = record_log
        #: Per-round (alice→bob, bob→alice) bit pairs, in round order —
        #: the raw material for round-profile experiments.  Stays empty
        #: when ``record_log`` is false.
        self.round_log: list[tuple[int, int]] = []
        self._phases: dict[str, PhaseStats] = {}

    @property
    def total_bits(self) -> int:
        """Bits exchanged in both directions over the whole execution."""
        return self.bits_alice_to_bob + self.bits_bob_to_alice

    @property
    def phases(self) -> dict[str, PhaseStats]:
        """Per-phase statistics keyed by phase name."""
        return dict(self._phases)

    def phase_stats(self, name: str) -> PhaseStats:
        """Statistics for phase ``name`` (zeros if the phase never ran)."""
        return self._phases.get(name, PhaseStats())

    def record_round(
        self,
        bits_a_to_b: int,
        bits_b_to_a: int,
        phases: tuple[str, ...] = (),
    ) -> None:
        """Record one simultaneous exchange round.

        ``phases`` names the phases to attribute this round to — the
        transports pass the parties' channel-level phase stack here, so an
        outer phase sees the sum of its inner phases plus its own traffic.
        """
        if bits_a_to_b < 0 or bits_b_to_a < 0:
            raise ValueError("bit counts must be non-negative")
        self.rounds += 1
        self.bits_alice_to_bob += bits_a_to_b
        self.bits_bob_to_alice += bits_b_to_a
        if self.record_log:
            self.round_log.append((bits_a_to_b, bits_b_to_a))
        if bits_a_to_b:
            self.messages += 1
        if bits_b_to_a:
            self.messages += 1
        if phases:
            self._attribute(bits_a_to_b, bits_b_to_a, 1, phases)

    def _attribute(
        self,
        bits_a_to_b: int,
        bits_b_to_a: int,
        rounds: int,
        phases: tuple[str, ...],
    ) -> None:
        """Attribute a (possibly multi-round) cost to every named phase."""
        for name in phases:
            stats = self._phases.setdefault(name, PhaseStats())
            stats.rounds += rounds
            stats.bits_alice_to_bob += bits_a_to_b
            stats.bits_bob_to_alice += bits_b_to_a

    def record_segment(
        self,
        bits_a_to_b: int,
        bits_b_to_a: int,
        rounds: int,
        messages: int,
        phases: tuple[str, ...] = (),
    ) -> None:
        """Record ``rounds`` exchange rounds in bulk.

        The count-only transport accumulates contiguous rounds sharing one
        phase stack and flushes them here, producing aggregates identical
        to ``rounds`` individual :meth:`record_round` calls (``messages``
        must be the number of non-empty directed messages in the segment).
        The per-round log is never reconstructed.
        """
        if bits_a_to_b < 0 or bits_b_to_a < 0 or rounds < 0 or messages < 0:
            raise ValueError("segment totals must be non-negative")
        self.rounds += rounds
        self.bits_alice_to_bob += bits_a_to_b
        self.bits_bob_to_alice += bits_b_to_a
        self.messages += messages
        if phases:
            self._attribute(bits_a_to_b, bits_b_to_a, rounds, phases)

    def canonical(self, with_log: bool = False) -> bytes:
        """A canonical byte serialization of the transcript's contents.

        Covers the headline aggregates and the per-phase breakdown (sorted
        by phase name, so accumulation order does not matter); with
        ``with_log=True`` the full per-round log is appended too.  Two
        transcripts serialize identically iff every recorded quantity
        matches — the raw material for golden-digest tests.
        """
        doc: dict = {
            "summary": self.summary(),
            "phases": sorted(
                (name, s.bits_alice_to_bob, s.bits_bob_to_alice, s.rounds)
                for name, s in self._phases.items()
            ),
        }
        if with_log:
            doc["round_log"] = [list(pair) for pair in self.round_log]
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()

    def fingerprint(self, with_log: bool = False) -> str:
        """sha256 hex digest of :meth:`canonical`.

        Without the log this is transport-invariant (the parity contract:
        lockstep, count, and strict must all produce it bit-for-bit); with
        the log it additionally pins the round-by-round schedule, which
        only log-keeping transports can reproduce.
        """
        return hashlib.sha256(self.canonical(with_log=with_log)).hexdigest()

    def summary(self) -> dict[str, int]:
        """Headline numbers as a plain dict (for tables and logs)."""
        return {
            "total_bits": self.total_bits,
            "bits_alice_to_bob": self.bits_alice_to_bob,
            "bits_bob_to_alice": self.bits_bob_to_alice,
            "rounds": self.rounds,
            "messages": self.messages,
        }

    def __repr__(self) -> str:
        return (
            f"Transcript(total_bits={self.total_bits}, rounds={self.rounds}, "
            f"messages={self.messages})"
        )
