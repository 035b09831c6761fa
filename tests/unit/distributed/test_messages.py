"""Unit tests for the message layer."""

import dataclasses
import pickle

import pytest

from repro import wire
from repro.distributed.messages import Message, MessageKind
from repro.timeseries.pattern import LocalPattern
from repro.utils.serialization import MESSAGE_OVERHEAD_BYTES
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
            head = codec.envelope_head(message, len(block))
            assert head + block == frame == message.to_wire()
            assert len(head) + len(block) == message.size_bytes()

    def test_estimated_size_keeps_legacy_overhead_model(self):
        message = Message("a", "b", MessageKind.CONTROL, payload=None)
        assert message.estimated_size_bytes() == MESSAGE_OVERHEAD_BYTES
        pattern = LocalPattern("u", [1, 2, 3], "bs")
        report = Message("bs", "center", MessageKind.MATCH_REPORT, payload=[pattern])
        assert (
            report.estimated_size_bytes()
            == MESSAGE_OVERHEAD_BYTES + pattern.size_bytes()
        )

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

    def test_a_version_2_broadcast_encodes_its_payload_once(self):
        from fractions import Fraction

        from repro.core.wbf import WeightedBloomFilter

        wbf = WeightedBloomFilter(64, 3, seed=1, backend="python")
        wbf.add("item", ("q1", Fraction(1, 3)))
        messages = [
            Message("agg", f"s{i}", MessageKind.FILTER_DISSEMINATION, wbf, wire_version=2)
            for i in range(3)
        ]
        payloads = [message.payload_wire() for message in messages]
        assert payloads[0] == wire.encode(wbf, version=2)
        assert all(payload is payloads[0] for payload in payloads)
        for message in messages:
            assert message.size_bytes() == len(message.to_wire())
            assert Message.from_wire(message.to_wire()) == message

    def test_from_wire_rejects_non_message_buffers(self):
        with pytest.raises(wire.WireFormatError):
            Message.from_wire(wire.encode([LocalPattern("u", [1], "bs")]))

    def test_unencodable_payload_falls_back_to_estimate(self):
        class Opaque:
            def size_bytes(self) -> int:
                return 123

        message = Message("a", "b", MessageKind.CONTROL, payload=Opaque())
        assert message.payload_bytes() == 123
        assert message.size_bytes() == MESSAGE_OVERHEAD_BYTES + 123

    def test_stays_a_frozen_hashable_dataclass(self):
        message = Message("bs", "center", MessageKind.MATCH_REPORT, (1, 2, 3), 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            message.sender = "other"
        twin = Message(
            sender="bs",
            recipient="center",
            kind=MessageKind.MATCH_REPORT,
            payload=(1, 2, 3),
            wire_version=2,
        )
        assert twin == message and hash(twin) == hash(message)
        assert Message("bs", "center", MessageKind.CONTROL) == Message(
            "bs", "center", MessageKind.CONTROL, None, 1
        )
        moved = dataclasses.replace(message, recipient="agg")
        assert (moved.recipient, moved.sender, moved.wire_version) == ("agg", "bs", 2)
        assert moved != message
        assert [field.name for field in dataclasses.fields(Message)] == [
            "sender", "recipient", "kind", "payload", "wire_version",
        ]
        message.size_bytes()  # memoizes the payload block on the instance
        restored = pickle.loads(pickle.dumps(message))
        assert restored == message and restored.to_wire() == message.to_wire()

    def test_kinds_are_distinct(self):
        assert MessageKind.FILTER_DISSEMINATION != MessageKind.MATCH_REPORT

    def test_repr_mentions_route(self):
        message = Message("a", "b", MessageKind.CONTROL)
        assert "'a'" in repr(message) and "'b'" in repr(message)


class TestEstimateFallbackAccounting:
    """Falling back from codec bytes to the estimate model is counted + warned."""

    @pytest.fixture(autouse=True)
    def fresh_counter(self):
        import repro.distributed.messages as messages_module

        messages_module.reset_estimated_size_fallbacks()
        warned = messages_module._fallback_warned
        yield
        messages_module.reset_estimated_size_fallbacks()
        messages_module._fallback_warned = warned

    def _opaque_message(self) -> Message:
        class Opaque:
            def size_bytes(self) -> int:
                return 123

        return Message("a", "b", MessageKind.CONTROL, payload=Opaque())

    def test_encodable_payloads_never_count_as_fallbacks(self):
        from repro.distributed.messages import estimated_size_fallbacks

        message = Message(
            "bs", "center", MessageKind.MATCH_REPORT,
            payload=[LocalPattern("u", [1, 2, 3], "bs")],
        )
        message.size_bytes()
        message.payload_bytes()
        assert estimated_size_fallbacks() == 0

    def test_each_fallback_increments_the_counter(self):
        import repro.distributed.messages as messages_module
        from repro.distributed.messages import estimated_size_fallbacks

        messages_module._fallback_warned = True  # silence; warning tested below
        message = self._opaque_message()
        assert message.size_bytes() == MESSAGE_OVERHEAD_BYTES + 123
        assert estimated_size_fallbacks() == 1
        message.payload_bytes()
        assert estimated_size_fallbacks() == 2

    def test_reset_returns_and_zeroes_the_count(self):
        import repro.distributed.messages as messages_module
        from repro.distributed.messages import (
            estimated_size_fallbacks,
            reset_estimated_size_fallbacks,
        )

        messages_module._fallback_warned = True
        self._opaque_message().size_bytes()
        assert reset_estimated_size_fallbacks() == 1
        assert estimated_size_fallbacks() == 0

    def test_first_fallback_warns_once_per_process(self):
        import warnings

        import repro.distributed.messages as messages_module

        messages_module._fallback_warned = False
        message = self._opaque_message()
        with pytest.warns(RuntimeWarning, match="estimate model.*Opaque"):
            message.size_bytes()
        # Subsequent fallbacks stay silent — the counter carries the tally.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message.payload_bytes()
