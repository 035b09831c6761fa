"""Unit tests for the deterministic event-driven network."""

import pytest

from repro.distributed.events import EventLoop, RoundTimeoutError
from repro.distributed.faults import FaultPlan
from repro.distributed.messages import Message, MessageKind
from repro.distributed.network import NetworkConfig, SimulatedNetwork
from repro.distributed.node import Node


def _message(payload=None, sender="a", recipient="b"):
    return Message(sender, recipient, MessageKind.CONTROL, payload=payload)


class TestNetworkConfig:
    def test_transfer_time_includes_latency_and_bandwidth(self):
        config = NetworkConfig(bandwidth_bytes_per_s=1000, latency_s=0.5)
        assert config.transfer_time_s(1000) == pytest.approx(1.5)

    def test_zero_bytes_costs_latency_only(self):
        config = NetworkConfig(latency_s=0.25)
        assert config.transfer_time_s(0) == pytest.approx(0.25)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NetworkConfig(bandwidth_bytes_per_s=0)
        with pytest.raises(ValueError):
            NetworkConfig(latency_s=-1)
        with pytest.raises(ValueError):
            NetworkConfig(max_attempts=0)
        with pytest.raises(ValueError):
            NetworkConfig(retransmit_timeout_s=0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig().transfer_time_s(-1)


class TestSimulatedNetwork:
    def test_byte_accounting(self):
        network = SimulatedNetwork(NetworkConfig())
        network.broadcast([(_message(payload=[1, 2, 3]), None)])
        network.gather([(_message(payload="abcd"), None)])
        assert network.downlink_bytes > 0
        assert network.uplink_bytes > 0
        assert network.message_count == 2
        assert network.frame_stats().frames_delivered == 2

    def test_downlink_is_parallel_uplink_is_serial(self):
        config = NetworkConfig(bandwidth_bytes_per_s=1_000_000, latency_s=1.0)
        network = SimulatedNetwork(config)
        network.broadcast([(_message(recipient=f"bs-{i}"), None) for i in range(3)])
        network.gather([(_message(sender=f"bs-{i}"), None) for i in range(3)])
        # Downlink contributes max (1 s), uplink contributes the sum (3 s).
        assert network.transmission_time_s() == pytest.approx(4.0, rel=0.01)

    def test_transmission_time_empty(self):
        assert SimulatedNetwork().transmission_time_s() == 0.0

    def test_send_returns_transfer_time(self):
        network = SimulatedNetwork(NetworkConfig(latency_s=0.1))
        assert network.broadcast([(_message(), None)]).duration_s >= 0.1

    def test_delivery_decodes_real_wire_bytes_into_the_receiver(self):
        center = Node("center")
        message = Message("bs-1", "center", MessageKind.MATCH_REPORT, payload=[1, 2, 3])
        network = SimulatedNetwork()
        outcome = network.gather([(message, center)])
        assert outcome.delivered_ids == ("bs-1",)
        assert len(center.inbox) == 1
        decoded = center.inbox[0]
        # The inbox holds the *decoded* message: equal, but a distinct object
        # that actually crossed the codec.
        assert decoded == message
        assert decoded is not message


class TestReliability:
    def test_dropped_frames_are_retransmitted_until_delivered(self):
        plan = FaultPlan(drop_probability=0.5)
        center = Node("center")
        sends = [
            (Message(f"bs-{i}", "center", MessageKind.MATCH_REPORT, [i]), center)
            for i in range(8)
        ]
        network = SimulatedNetwork(NetworkConfig(), fault_plan=plan, seed=1)
        outcome = network.gather(sends)
        stats = network.frame_stats()
        # Half the frames drop on average, yet every message arrives.
        assert len(center.inbox) == 8
        assert outcome.failed_ids == ()
        assert stats.frames_dropped > 0
        assert stats.retransmit_count >= stats.frames_dropped
        assert stats.goodput_fraction < 1.0

    def test_exhausted_attempts_raise_typed_error(self):
        plan = FaultPlan(drop_probability=1.0)
        network = SimulatedNetwork(
            NetworkConfig(max_attempts=3), fault_plan=plan, seed=0
        )
        with pytest.raises(RoundTimeoutError) as excinfo:
            network.gather([(_message(sender="bs-1", recipient="center"), None)])
        assert excinfo.value.failed_transfers == ("bs-1->center",)
        assert network.frame_stats().timeout_count == 1
        assert network.frame_stats().frames_sent == 3

    def test_allow_partial_reports_failed_ids_instead_of_raising(self):
        plan = FaultPlan(drop_probability=1.0)
        network = SimulatedNetwork(
            NetworkConfig(max_attempts=2), fault_plan=plan, seed=0, allow_partial=True
        )
        outcome = network.gather(
            [(_message(sender="bs-1", recipient="center"), None)]
        )
        assert outcome.delivered_ids == ()
        assert outcome.failed_ids == ("bs-1",)

    def test_corrupt_frames_never_reach_the_inbox(self):
        plan = FaultPlan(corrupt_probability=1.0)
        center = Node("center")
        message = Message("bs-1", "center", MessageKind.MATCH_REPORT, payload=[7])
        network = SimulatedNetwork(
            NetworkConfig(max_attempts=4), fault_plan=plan, seed=5, allow_partial=True
        )
        network.gather([(message, center)])
        stats = network.frame_stats()
        assert center.inbox == []
        assert stats.frames_corrupt == 4
        assert stats.frames_corrupt == (
            stats.corrupt_caught_by_codec + stats.corrupt_caught_by_checksum
        )

    def test_duplicates_are_suppressed_exactly_once_semantics(self):
        plan = FaultPlan(duplicate_probability=1.0)
        center = Node("center")
        sends = [
            (Message(f"bs-{i}", "center", MessageKind.MATCH_REPORT, [i]), center)
            for i in range(4)
        ]
        network = SimulatedNetwork(NetworkConfig(), fault_plan=plan, seed=1)
        network.gather(sends)
        stats = network.frame_stats()
        assert len(center.inbox) == 4
        assert stats.frames_duplicate == 4
        # The duplicate emissions were charged on the wire.
        assert stats.payload_bytes_sent == 2 * stats.payload_bytes_delivered

    def test_frame_held_past_its_timer_still_retransmits(self):
        # Fault-free, but the 1 ms timer fires long before the 20 ms link
        # delivers: the intact first frame must keep its timer, so the
        # transfer retransmits once and the late copy lands as a duplicate.
        center = Node("center")
        message = Message("bs-1", "center", MessageKind.MATCH_REPORT, payload=[1])
        network = SimulatedNetwork(NetworkConfig(retransmit_timeout_s=0.001))
        outcome = network.gather([(message, center)])
        stats = network.frame_stats()
        assert outcome.delivered_ids == ("bs-1",)
        assert len(center.inbox) == 1
        assert stats.retransmit_count == 1
        assert stats.frames_sent == 2
        assert stats.frames_duplicate == 1
        events = [entry.event for entry in network.transcript]
        assert events == ["phase", "send", "retransmit", "send", "deliver", "duplicate"]

    def test_straggler_multiplier_slows_the_link(self):
        fast = SimulatedNetwork(NetworkConfig())
        slow = SimulatedNetwork(
            NetworkConfig(),
            fault_plan=FaultPlan(
                straggler_probability=1.0, straggler_multiplier=16.0
            ),
        )
        message = _message(payload=list(range(100)))
        assert (
            slow.broadcast([(message, None)]).duration_s
            > 4 * fast.broadcast([(message, None)]).duration_s
        )

    def test_transcript_records_phase_send_deliver(self):
        network = SimulatedNetwork()
        network.broadcast([(_message(), None)])
        events = [entry.event for entry in network.transcript]
        assert events == ["phase", "send", "deliver"]
        assert network.transcript_bytes().count(b"\n") == 2


def test_fault_free_phase_schedules_no_event(monkeypatch):
    scheduled = []
    schedule = EventLoop.schedule

    def counting_schedule(loop, time_s, callback, *args):
        scheduled.append(callback.__name__)
        schedule(loop, time_s, callback, *args)

    monkeypatch.setattr(EventLoop, "schedule", counting_schedule)
    frames = 6
    receivers = [Node(f"bs-{i}") for i in range(frames)]
    network = SimulatedNetwork()
    outcome = network.broadcast(
        [(_message(recipient=receiver.node_id), receiver) for receiver in receivers]
    )
    # No frame can be lost, and none lands after its timer would fire, so
    # the phase runs in one pass: no arrival or timer is ever scheduled.
    assert scheduled == []
    assert len(outcome.delivered_ids) == frames
    assert [len(receiver.inbox) for receiver in receivers] == [1] * frames
    assert network.frame_stats().frames_delivered == frames
    assert network.frame_stats().retransmit_count == 0


class TestDeliveredPayloads:
    def test_frames_grouped_per_station_in_delivery_order(self):
        plan = FaultPlan(
            drop_probability=0.3,
            duplicate_probability=0.5,
            corrupt_probability=0.2,
            reorder_probability=0.3,
        )
        network = SimulatedNetwork(fault_plan=plan, seed=11, allow_partial=True)
        stations = [f"bs-{i}" for i in range(6)]
        center = Node("center")
        # Two downlink phases, so a station can hold two frames, then one uplink.
        phases = [
            ("downlink", [(_message([0, sid], "center", sid), Node(sid)) for sid in stations]),
            ("downlink", [(_message([1, sid], "center", sid), Node(sid)) for sid in stations]),
            ("uplink", [(_message([2, sid], sid, "center"), center) for sid in stations]),
        ]
        sent = []
        for direction, sends in phases:
            for message, _receiver in sends:
                station = message.recipient if direction == "downlink" else message.sender
                sent.append((direction, station, message.to_wire()))
            (network.broadcast if direction == "downlink" else network.gather)(sends)

        expected: dict[str, dict[str, list[bytes]]] = {"downlink": {}, "uplink": {}}
        for entry in network.transcript:
            if entry.event == "deliver":
                direction, station, frame = sent[entry.frame_id]
                expected[direction].setdefault(station, []).append(frame)
        stats = network.frame_stats()
        # The plan bit: frames were lost, duplicated and corrupted.
        assert stats.frames_dropped and stats.frames_duplicate and stats.frames_corrupt
        entries = 0
        for direction, by_station in expected.items():
            got = network.delivered_payloads(direction)
            assert got == {station: tuple(frames) for station, frames in by_station.items()}
            # Stations in the order of their first delivered frame.
            assert list(got) == list(by_station)
            entries += sum(len(frames) for frames in got.values())
        # One entry per accepted frame: duplicates and corrupt copies add none.
        assert entries == stats.frames_delivered
