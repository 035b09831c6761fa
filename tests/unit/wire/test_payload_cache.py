"""The message-payload decode cache: broadcast decode-once semantics.

A round broadcasts one artifact to N stations as N messages embedding the same
payload bytes; the cache makes the N envelope decodes share one payload decode.
These tests pin the guard rails: identical bytes hit, a mutated cached object
is evicted (revision check), and list payloads (per-station reports) never
share.
"""

import pytest

import repro.wire.codec as codec
from repro import wire
from repro.core.protocol import MatchReport
from repro.core.wbf import WeightedBloomFilter
from repro.distributed.messages import Message, MessageKind
from fractions import Fraction


@pytest.fixture(autouse=True)
def fresh_cache():
    codec.clear_payload_decode_cache()
    yield
    codec.clear_payload_decode_cache()


def _filter_message(recipient: str = "s1") -> Message:
    wbf = WeightedBloomFilter(512, 4)
    for item in range(40):
        wbf.add(item, ("q1", Fraction(1, 3)))
    return Message(
        sender="dc", recipient=recipient, kind=MessageKind.FILTER_DISSEMINATION,
        payload=wbf,
    )


class TestPayloadDecodeCache:
    def test_broadcast_decodes_share_one_payload(self):
        message = _filter_message()
        first = Message.from_wire(message.to_wire())
        second = Message.from_wire(
            Message(
                sender="dc", recipient="s2",
                kind=MessageKind.FILTER_DISSEMINATION, payload=message.payload,
            ).to_wire()
        )
        assert first.payload == message.payload
        # Different envelopes, same payload bytes: one decoded instance.
        assert second.payload is first.payload

    def test_mutated_cached_payload_is_evicted(self):
        message = _filter_message()
        first = Message.from_wire(message.to_wire())
        first.payload.add(999, ("q9", Fraction(1, 5)))
        # The cached object's revision moved, so the next decode of the same
        # bytes must re-decode rather than serve the mutated instance.
        again = Message.from_wire(message.to_wire())
        assert again.payload is not first.payload
        assert again.payload == message.payload

    def test_report_lists_never_share(self):
        reports = [
            MatchReport(
                user_id=f"u{i}", station_id="s1",
                weight=Fraction(1, 2), query_id="q1",
            )
            for i in range(40)
        ]
        message = Message(
            sender="s1", recipient="dc",
            kind=MessageKind.MATCH_REPORT, payload=reports,
        )
        first = Message.from_wire(message.to_wire())
        second = Message.from_wire(message.to_wire())
        assert first.payload == second.payload
        assert first.payload is not second.payload

    def test_cache_is_bounded(self):
        for index in range(codec._PAYLOAD_DECODE_CACHE_MAX + 4):
            wbf = WeightedBloomFilter(512, 4, seed=index)
            for item in range(40):
                wbf.add(item, ("q1", Fraction(1, 3)))
            message = Message(
                sender="dc", recipient="s1",
                kind=MessageKind.FILTER_DISSEMINATION, payload=wbf,
            )
            Message.from_wire(message.to_wire())
        assert len(codec._PAYLOAD_DECODE_CACHE) <= codec._PAYLOAD_DECODE_CACHE_MAX

    def test_decode_accepts_memoryview_and_bytearray(self):
        message = _filter_message()
        data = message.to_wire()
        from_view = wire.decode(memoryview(data))
        from_array = wire.decode(bytearray(data))
        assert from_view == message
        assert from_array == message
