"""Unit tests for the message layer."""

import dataclasses
import pickle

import pytest

from repro import wire
from repro.distributed.messages import Message, MessageKind
from repro.timeseries.pattern import LocalPattern
from repro.wire import codec


class TestMessage:
    def test_size_is_real_encoded_length(self):
        message = Message("a", "b", MessageKind.CONTROL, payload=None)
        assert message.size_bytes() == len(wire.encode(message))
        assert message.size_bytes() == len(message.to_wire())

    def test_arithmetic_envelope_size_matches_encoding_exactly(self):
        # size_bytes() computes the envelope arithmetically (no per-message
        # envelope bytes materialized); it must stay in lockstep with the real
        # encoder for every payload shape and multi-byte-varint field length.
        payloads = [
            None,
            [LocalPattern("user-x", list(range(40)), "bs-long-name")],
            [LocalPattern(f"u{i}", [i], "bs") for i in range(40)],
        ]
        for payload in payloads:
            message = Message("sender-" + "s" * 130, "r", MessageKind.MATCH_REPORT, payload)
            frame = wire.encode(message)
            assert message.size_bytes() == len(frame)
            # The simulated transport's frames: a head, then the payload block.
            block = message.payload_wire()
            head = codec.envelope_head(
                message.sender, message.recipient, message.kind, len(block)
            )
            assert head + block == frame == message.to_wire()
            assert len(head) + len(block) == message.size_bytes()

    def test_payload_bytes_for_pattern_payload(self):
        pattern = LocalPattern("u", [1, 2, 3], "bs")
        message = Message("bs", "center", MessageKind.MATCH_REPORT, payload=[pattern])
        assert message.payload_bytes() == len(wire.encode([pattern]))
        # The envelope adds routing fields on top of the payload block.
        assert message.size_bytes() > message.payload_bytes()

    def test_wire_round_trip(self):
        pattern = LocalPattern("u", [1, 2, 3], "bs")
        message = Message("bs", "center", MessageKind.MATCH_REPORT, payload=[pattern])
        assert Message.from_wire(message.to_wire()) == message

    def test_a_broadcast_encodes_its_payload_once(self):
        from fractions import Fraction

        from repro.core.wbf import WeightedBloomFilter

        wbf = WeightedBloomFilter(64, 3, seed=1, backend="python")
        wbf.add("item", ("q1", Fraction(1, 3)))
        messages = [
            Message("agg", f"s{i}", MessageKind.FILTER_DISSEMINATION, wbf) for i in range(3)
        ]
        payloads = [message.payload_wire() for message in messages]
        assert payloads[0] == wire.encode(wbf)
        assert all(payload is payloads[0] for payload in payloads)
        for message in messages:
            assert message.size_bytes() == len(message.to_wire())
            assert Message.from_wire(message.to_wire()) == message

    def test_from_wire_rejects_non_message_buffers(self):
        with pytest.raises(wire.WireFormatError):
            Message.from_wire(wire.encode([LocalPattern("u", [1], "bs")]))

    def test_stays_a_frozen_hashable_dataclass(self):
        message = Message("bs", "center", MessageKind.MATCH_REPORT, (1, 2, 3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            message.sender = "other"
        twin = Message(
            sender="bs",
            recipient="center",
            kind=MessageKind.MATCH_REPORT,
            payload=(1, 2, 3),
        )
        assert twin == message and hash(twin) == hash(message)
        assert Message("bs", "center", MessageKind.CONTROL) == Message(
            "bs", "center", MessageKind.CONTROL, None
        )
        moved = dataclasses.replace(message, recipient="agg")
        assert (moved.recipient, moved.sender, moved.payload) == ("agg", "bs", (1, 2, 3))
        assert moved != message
        assert [field.name for field in dataclasses.fields(Message)] == [
            "sender", "recipient", "kind", "payload",
        ]
        message.size_bytes()  # memoizes the payload block on the instance
        restored = pickle.loads(pickle.dumps(message))
        assert restored == message and restored.to_wire() == message.to_wire()

    def test_kinds_are_distinct(self):
        assert MessageKind.FILTER_DISSEMINATION != MessageKind.MATCH_REPORT

    def test_repr_mentions_route(self):
        message = Message("a", "b", MessageKind.CONTROL)
        assert "'a'" in repr(message) and "'b'" in repr(message)


    def test_repr_shows_the_size_only_once_memoized(self):
        message = Message("a", "b", MessageKind.CONTROL, payload=[1, 2])
        assert "bytes=" not in repr(message)
        size = message.size_bytes()
        assert repr(message).endswith(f", bytes={size})")
