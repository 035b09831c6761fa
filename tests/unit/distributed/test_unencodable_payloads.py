"""A payload the wire codec cannot encode is refused, never charged or sent.

The codec is the only byte model: a :class:`Message` whose payload has no
wire encoding raises :class:`~repro.wire.errors.UnsupportedWireTypeError`
from ``size_bytes()`` and ``payload_bytes()``, and a phase holding one
raises before any of its frames is sent, on the one-pass path of a
fault-free plan and on the event loop of a faulty one alike.  The failed
phase leaves one ledger: nothing charged, no transcript row (not even the
phase row), no delivered payload, no decoded inbox, and a message count of
the sends before the refused one.

Nothing here imports ``repro.datagen``, so the file runs without NumPy.
"""

from fractions import Fraction

import pytest

from repro.core.wbf import WeightedBloomFilter
from repro.distributed.messages import Message, MessageKind
from repro.distributed.network import SimulatedNetwork
from repro.distributed.node import Node
from repro.distributed.transport.base import FrameStats
from repro.timeseries.pattern import LocalPattern
from repro.wire.errors import UnsupportedWireTypeError


class _Sized:
    """An object that reports a storage size but has no wire encoding."""

    def size_bytes(self) -> int:
        return 123


#: Shapes the codec refuses, each named for the test id.
UNENCODABLE = {
    "dict": lambda: {"a": 1},
    "set": lambda: {1, 2},
    "sized-object": _Sized,
    "bare-object": object,
    "int-2**70": lambda: 2**70,
    "pattern-2**70": lambda: LocalPattern("u", [2**70], "bs-2"),
}

#: The refused message sits after this many encodable ones in its phase.
SENDS_BEFORE = 2


def _artifact() -> WeightedBloomFilter:
    wbf = WeightedBloomFilter(64, 2, seed=5)
    wbf.add("x", ("q", Fraction(1, 2)))
    return wbf


def downlink_sends(bad: object) -> list:
    """A broadcast whose third message carries ``bad``."""
    artifact = _artifact()
    payloads = [artifact] * SENDS_BEFORE + [bad, artifact]
    return [
        (
            Message("dc", f"bs-{index}", MessageKind.FILTER_DISSEMINATION, payload),
            Node(f"bs-{index}"),
        )
        for index, payload in enumerate(payloads)
    ]


def uplink_sends(bad: object) -> list:
    """A gather whose third message carries ``bad``."""
    center = Node("dc")
    payloads = [[LocalPattern("u", [index], f"bs-{index}")] for index in range(SENDS_BEFORE)]
    payloads += [bad, []]
    return [
        (Message(f"bs-{index}", "dc", MessageKind.MATCH_REPORT, payload), center)
        for index, payload in enumerate(payloads)
    ]


def refused_phase_ledger(network) -> dict:
    """What a caller can read of a transport after one refused phase."""
    return {
        "downlink_bytes": network.downlink_bytes,
        "uplink_bytes": network.uplink_bytes,
        "message_count": network.message_count,
        "transcript": network.transcript,
        "stats": network.frame_stats(),
        "time": network.transmission_time_s(),
        "delivered": (
            network.delivered_payloads("downlink"),
            network.delivered_payloads("uplink"),
        ),
    }


#: The one ledger a refused phase leaves on a fresh transport.
REFUSED_LEDGER = {
    "downlink_bytes": 0,
    "uplink_bytes": 0,
    "message_count": SENDS_BEFORE,
    "transcript": (),
    "stats": FrameStats(),
    "time": 0.0,
    "delivered": ({}, {}),
}


@pytest.fixture(params=sorted(UNENCODABLE), ids=str)
def bad_payload(request):
    return UNENCODABLE[request.param]()


class TestMessageSizes:
    def test_size_and_payload_bytes_raise(self, bad_payload):
        message = Message("bs", "dc", MessageKind.MATCH_REPORT, bad_payload)
        with pytest.raises(UnsupportedWireTypeError):
            message.size_bytes()
        with pytest.raises(UnsupportedWireTypeError):
            message.payload_bytes()
        with pytest.raises(UnsupportedWireTypeError):
            message.to_wire()

    def test_repr_neither_encodes_nor_raises(self, bad_payload):
        message = Message("bs", "dc", MessageKind.MATCH_REPORT, bad_payload)
        assert repr(message) == "Message('bs' -> 'dc', kind=match_report)"
        assert message._payload_wire_cache is None


class TestRefusedPhases:
    def test_fault_free_broadcast_raises_before_sending(self, bad_payload):
        network = SimulatedNetwork()
        sends = downlink_sends(bad_payload)
        with pytest.raises(UnsupportedWireTypeError):
            network.broadcast(sends)
        assert refused_phase_ledger(network) == REFUSED_LEDGER
        assert all(receiver.inbox == [] for _message, receiver in sends)

    def test_faulty_gather_raises_before_sending(self, bad_payload):
        network = SimulatedNetwork(fault_plan="chaos", seed=7)
        sends = uplink_sends(bad_payload)
        with pytest.raises(UnsupportedWireTypeError):
            network.gather(sends)
        assert refused_phase_ledger(network) == REFUSED_LEDGER
        assert sends[0][1].inbox == []

    def test_the_next_phase_runs_as_if_the_refused_one_offered_its_prefix(
        self, bad_payload
    ):
        # Frame ids advance past the offered prefix, exactly as if those sends
        # had started a phase; the following phase is otherwise untouched.
        network = SimulatedNetwork()
        with pytest.raises(UnsupportedWireTypeError):
            network.broadcast(downlink_sends(bad_payload))
        sends = uplink_sends([])[SENDS_BEFORE + 1 :]
        outcome = network.gather(sends)
        assert outcome.delivered_ids == (f"bs-{SENDS_BEFORE + 1}",)
        assert network.message_count == SENDS_BEFORE + 1
        rows = network.transcript
        assert [row.event for row in rows] == ["phase", "send", "deliver"]
        assert rows[1].frame_id == SENDS_BEFORE
        assert network.uplink_bytes == sends[0][0].size_bytes()
