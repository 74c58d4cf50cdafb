"""Unit tests for the wire messages and the transcript ledger.

Protocol execution (rounds, desync, parallel composition) is tested on
every transport in ``test_comm_transport.py``.
"""

from __future__ import annotations

import pytest

from repro.comm import BatchMsg, Msg, Transcript


class TestMsg:
    def test_empty(self):
        assert Msg.empty().nbits == 0
        assert Msg.empty().is_empty

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            Msg(-1)

    def test_batch_size_is_sum(self):
        batch = BatchMsg({"a": Msg(3), "b": Msg(5)})
        assert batch.nbits == 8
        assert batch.get("a").nbits == 3
        assert batch.get("missing").is_empty


class TestTranscript:
    def test_round_accounting(self):
        t = Transcript()
        t.record_round(10, 0)
        t.record_round(0, 7)
        assert t.total_bits == 17
        assert t.rounds == 2
        assert t.messages == 2
        assert t.bits_alice_to_bob == 10
        assert t.bits_bob_to_alice == 7

    def test_phase_attribution(self):
        t = Transcript()
        t.record_round(4, 4, phases=("one",))
        t.record_round(1, 0, phases=("two",))
        assert t.phase_stats("one").total_bits == 8
        assert t.phase_stats("two").total_bits == 1
        assert t.phase_stats("two").rounds == 1
        assert t.phase_stats("missing").total_bits == 0

    def test_nested_phases_accumulate(self):
        t = Transcript()
        t.record_round(2, 2, phases=("outer", "inner"))
        t.record_round(1, 1, phases=("outer",))
        assert t.phase_stats("outer").total_bits == 6
        assert t.phase_stats("inner").total_bits == 4

    def test_negative_bits_rejected(self):
        t = Transcript()
        with pytest.raises(ValueError):
            t.record_round(-1, 0)

    def test_silent_direction_is_not_a_message(self):
        t = Transcript()
        t.record_round(5, 0)
        t.record_round(0, 0)
        assert t.rounds == 2
        assert t.messages == 1
        assert t.round_log == [(5, 0), (0, 0)]

    def test_negative_segment_totals_rejected(self):
        t = Transcript()
        for bad in ((-1, 0, 1, 1), (0, -1, 1, 1), (0, 0, -1, 0), (0, 0, 1, -1)):
            with pytest.raises(ValueError):
                t.record_segment(*bad)
        assert t.summary() == Transcript().summary()

