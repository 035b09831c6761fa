"""The simulated transport's phases against the per-frame path they replaced.

:class:`ReferenceNetwork` keeps the transport's earlier phase engine: every
message becomes one transfer holding its joined ``Message.to_wire`` frame,
every frame one heap event, and every delivery one ``Node.receive_wire``.
The transport now carries a frame as an envelope head plus a payload block
that all frames of a broadcast share, and runs a fault-free phase with the
automatic retransmit timeout in one pass, with no transfer or event.  Both
must leave the same transcript, ledger, byte and message counts, delivered
frames, decoded inboxes, phase outcomes and raised errors, over station
counts at and around the matching kernel's 128-row threshold, receivers
that are absent or raise, two frames on one link, every fault profile and
both partial modes.

``Node.receive_frame(head, payload)`` is checked against the joined decode,
``Node.receive_wire(head + payload)``, on intact, truncated, flipped,
mis-sized and non-canonical heads, and on heads and payload blocks at a
header version other than 1: the same inbox or the same error.

Nothing here imports ``repro.datagen``, so the file runs without NumPy.
"""

import zlib
from fractions import Fraction

import pytest

import repro.wire.codec as codec
from repro.core.protocol import MatchReport
from repro.core.wbf import WeightedBloomFilter
from repro.distributed.events import RoundTimeoutError, TranscriptEntry
from repro.distributed.faults import FAULT_PROFILES, NO_FRAME_FAULTS
from repro.distributed.messages import Message, MessageKind
from repro.distributed.network import NetworkConfig, SimulatedNetwork
from repro.distributed.node import Node
from repro.distributed.transport.base import PhaseOutcome
from repro.wire.codec import envelope_head
from repro.wire.errors import UnsupportedWireTypeError, WireFormatError
from repro.wire.primitives import uvarint_bytes

# -- the reference: one transfer, one joined frame and one event per message ----

_UPLINK_INGRESS = "uplink:center-ingress"


class _ReferenceTransfer:
    """One logical message's reliable delivery state, holding its whole frame."""

    __slots__ = (
        "frame_id",
        "message",
        "receiver",
        "direction",
        "payload",
        "size",
        "occupancy",
        "kind",
        "link",
        "station",
        "attempts",
        "delivered",
        "failed",
        "resolved_at",
    )

    def __init__(self, frame_id, message, receiver, direction, config):
        self.frame_id = frame_id
        self.message = message
        self.receiver = receiver
        self.direction = direction
        try:
            payload = message.to_wire()
        except UnsupportedWireTypeError:
            payload = None
        self.payload = payload
        self.size = len(payload) if payload is not None else message.size_bytes()
        self.occupancy = config.transfer_time_s(self.size)
        self.kind = message.kind.value
        if direction == "downlink":
            self.link = f"downlink:{message.recipient}"
            self.station = message.recipient
        else:
            self.link = _UPLINK_INGRESS
            self.station = message.sender
        self.attempts = 0
        self.delivered = False
        self.failed = False
        self.resolved_at = 0.0


class ReferenceNetwork(SimulatedNetwork):
    """The simulated transport with its per-frame phase engine.

    It takes a phase as its ``(Message, receiver)`` pairs, as that engine did.
    """

    def broadcast(self, sends):
        return self._run_phase(list(sends), "downlink")

    def gather(self, sends):
        return self._run_phase(list(sends), "uplink")

    def _record(self, time_s, event, transfer, attempt):
        message = transfer.message
        self._transcript.append(
            TranscriptEntry(
                len(self._transcript),
                time_s,
                event,
                transfer.frame_id,
                attempt,
                message.sender,
                message.recipient,
                transfer.kind,
                transfer.size,
            )
        )

    def _run_phase(self, sends, direction):
        self._loop.reset(0.0)
        self._link_free.clear()
        transfers = []
        for message, receiver in sends:
            transfer = _ReferenceTransfer(
                self._next_frame_id, message, receiver, direction, self._config
            )
            self._next_frame_id += 1
            self._message_count += 1
            transfers.append(transfer)
        self._transcript.append(
            TranscriptEntry(
                sequence=len(self._transcript),
                time_s=0.0,
                event="phase",
                frame_id=-1,
                attempt=len(transfers),
                sender="-",
                recipient="-",
                kind=direction,
                size_bytes=0,
            )
        )
        for transfer in transfers:
            self._schedule_attempt(0.0, transfer, False)
        self._loop.run()
        failed = [t for t in transfers if not t.delivered]
        if failed and not self._allow_partial:
            labels = tuple(f"{t.message.sender}->{t.message.recipient}" for t in failed)
            raise RoundTimeoutError(
                f"{len(failed)} {direction} transfer(s) exhausted "
                f"{self._config.max_attempts} attempts under fault plan "
                f"{self._plan.name!r} (seed {self._injector.seed}): "
                + ", ".join(labels),
                failed_transfers=labels,
                delivered_ids=tuple(t.station for t in transfers if t.delivered),
            )
        duration = max((t.resolved_at for t in transfers), default=0.0)
        if direction == "downlink":
            self._downlink_durations.append(duration)
        else:
            self._uplink_durations.append(duration)
        return PhaseOutcome(
            direction=direction,
            duration_s=duration,
            delivered_ids=tuple(t.station for t in transfers if t.delivered),
            failed_ids=tuple(t.station for t in transfers if not t.delivered),
        )

    def _charge(self, transfer):
        self._frames_sent += 1
        self._payload_bytes_sent += transfer.size
        if transfer.direction == "downlink":
            self._downlink_bytes += transfer.size
        else:
            self._uplink_bytes += transfer.size

    def _schedule_attempt(self, time_s, transfer, retransmit):
        if transfer.delivered or transfer.failed:
            return
        config = self._config
        if transfer.attempts >= config.max_attempts:
            transfer.failed = True
            transfer.resolved_at = time_s
            self._timeout_count += 1
            self._record(time_s, "timeout", transfer, transfer.attempts)
            return
        transfer.attempts += 1
        attempt = transfer.attempts
        if retransmit:
            self._retransmit_count += 1
            self._record(time_s, "retransmit", transfer, attempt)
        occupancy = transfer.occupancy
        if self._fault_free:
            injector = None
            faults = NO_FRAME_FAULTS
        else:
            injector = self._injector
            faults = injector.frame_faults(transfer.frame_id, attempt)
            multiplier = injector.straggler_multiplier(transfer.station)
            if multiplier != 1.0:
                occupancy *= multiplier
        start = max(time_s, self._link_free.get(transfer.link, 0.0))
        self._link_free[transfer.link] = start + occupancy
        self._charge(transfer)
        self._record(start, "send", transfer, attempt)

        lost_to_blackout = False
        if injector is not None:
            blackout = injector.blackout_window(transfer.station)
            lost_to_blackout = blackout is not None and blackout[0] <= start < blackout[1]
        lost_to_fault = faults.drop or (faults.corrupt and transfer.payload is None)
        arrival = None
        if lost_to_blackout or lost_to_fault:
            self._frames_dropped += 1
            self._record(start, "blackout" if lost_to_blackout else "drop", transfer, attempt)
        else:
            arrival = start + occupancy
            if faults.jitter_s:
                arrival += faults.jitter_s
            if faults.reorder_delay_s:
                arrival += faults.reorder_delay_s
            data = transfer.payload
            if faults.corrupt:
                data = injector.corrupt_bytes(data, transfer.frame_id, attempt)
            self._loop.schedule(arrival, self._on_arrival, transfer, data)
            if faults.duplicate:
                self._charge(transfer)
                self._record(start, "dup-send", transfer, attempt)
                self._loop.schedule(
                    arrival + config.latency_s, self._on_arrival, transfer, transfer.payload
                )

        rto = config.retransmit_timeout_s
        if rto is None:
            rto = occupancy + 2.0 * config.latency_s + self._plan.jitter_s
        if attempt >= config.max_attempts:
            rto += self._plan.reorder_delay_s + config.latency_s
        timer_at = start + rto
        if arrival is None or faults.corrupt or arrival > timer_at:
            self._loop.schedule(timer_at, self._schedule_attempt, transfer, True)

    def _on_arrival(self, time_s, transfer, data):
        if transfer.delivered or transfer.failed:
            self._frames_duplicate += 1
            self._record(time_s, "duplicate", transfer, transfer.attempts)
            return
        if data is not transfer.payload and zlib.crc32(data) != zlib.crc32(transfer.payload):
            try:
                Message.from_wire(data)
            except WireFormatError:
                self._corrupt_caught_by_codec += 1
            else:
                self._corrupt_caught_by_checksum += 1
            self._frames_corrupt += 1
            self._record(time_s, "corrupt", transfer, transfer.attempts)
            return
        if transfer.receiver is not None:
            if data is not None:
                transfer.receiver.receive_wire(data)
            else:
                transfer.receiver.receive(transfer.message)
        transfer.delivered = True
        transfer.resolved_at = time_s
        self._frames_delivered += 1
        self._payload_bytes_delivered += transfer.size
        if transfer.payload is not None:
            self._delivered.record(transfer.direction, transfer.station, transfer.payload, b"")
        self._record(time_s, "deliver", transfer, transfer.attempts)


# -- phases ----------------------------------------------------------------------


def _artifact() -> WeightedBloomFilter:
    wbf = WeightedBloomFilter(512, 4, seed=3)
    for item in range(40):
        wbf.add(item, (f"q{item % 3}", Fraction(1, 1 + item % 5)))
    return wbf


ARTIFACT = _artifact()


def _station_ids(count: int) -> list[str]:
    # Ids of 6 down to 4 characters: longer frames are sent first, so a
    # downlink's arrival order differs from its send order.
    return [f"bs-{index}" for index in reversed(range(count))]


def _reports(index: int) -> list:
    if index % 3 == 0:
        return []
    return [
        MatchReport(f"u{user}", f"bs-{index}", Fraction(1, 2 + user), f"q{user % 2}")
        for user in range(index % 4)
    ]


def _downlink(stations, payload=ARTIFACT, receivers=None):
    receivers = receivers or {}
    sends = []
    for station in stations:
        receiver = receivers[station] if station in receivers else Node(station)
        message = Message("data-center", station, MessageKind.FILTER_DISSEMINATION, payload)
        sends.append((message, receiver))
    return sends


def _uplink(stations):
    center = Node("data-center")
    return [
        (
            Message(station, "data-center", MessageKind.MATCH_REPORT, _reports(index)),
            center,
        )
        for index, station in enumerate(stations)
    ]


def _observe(network_cls, phases, config=None, plan=None, seed=0, partial=False):
    """Everything a caller can see of a network after running ``phases``.

    ``phases`` is a list of ``(direction, build)`` pairs; ``build()`` returns
    fresh sends, so each path delivers into its own receivers.
    """
    network = network_cls(config, fault_plan=plan, seed=seed, allow_partial=partial)
    outcomes, inboxes = [], []
    for direction, build in phases:
        sends = build()
        run = network.broadcast if direction == "downlink" else network.gather
        try:
            outcomes.append(run(sends))
        except Exception as error:  # compared, type and all, across paths
            outcomes.append(
                (
                    type(error),
                    str(error),
                    getattr(error, "failed_transfers", None),
                    getattr(error, "delivered_ids", None),
                )
            )
        receivers = {id(r): r for _, r in sends if r is not None}
        inboxes.append([receiver.inbox for receiver in receivers.values()])
    return {
        "transcript": network.transcript_bytes(),
        "stats": network.frame_stats(),
        "bytes": (network.downlink_bytes, network.uplink_bytes, network.message_count),
        "time": network.transmission_time_s(),
        "delivered": (
            network.delivered_payloads("downlink"),
            network.delivered_payloads("uplink"),
        ),
        "outcomes": outcomes,
        "inboxes": inboxes,
    }


def _assert_same(phases, **network_args):
    want = _observe(ReferenceNetwork, phases, **network_args)
    got = _observe(SimulatedNetwork, phases, **network_args)
    for key in want:
        assert got[key] == want[key], key
    return got


# -- fault-free phases: the one-pass path ------------------------------------------


class TestFaultFreePhases:
    @pytest.mark.parametrize("count", [0, 1, 2, 127, 128, 1000])
    def test_both_directions_match_the_event_loop(self, count):
        stations = _station_ids(count)
        got = _assert_same(
            [
                ("downlink", lambda: _downlink(stations)),
                ("uplink", lambda: _uplink(stations)),
            ]
        )
        assert got["stats"].frames_delivered == 2 * count

    def test_arrival_order_differs_from_send_order(self):
        # Shorter ids make shorter frames, which land first on their own links.
        stations = ["bs-100", "bs-2", "bs-30", "bs-4"]
        got = _assert_same([("downlink", lambda: _downlink(stations))])
        delivered = [
            line.split()[-3].split("->")[1]
            for line in got["transcript"].decode().splitlines()
            if " deliver " in line
        ]
        assert delivered == ["bs-2", "bs-4", "bs-30", "bs-100"]

    def test_absent_receivers(self):
        stations = _station_ids(9)

        def downlink():
            sends = []
            for index, station in enumerate(stations):
                receiver = None if index % 3 == 2 else Node(station)
                message = Message("dc", station, MessageKind.FILTER_DISSEMINATION, ARTIFACT)
                sends.append((message, receiver))
            return sends

        def uplink():
            center = Node("dc")
            return [
                (
                    Message(station, "dc", MessageKind.MATCH_REPORT, _reports(index)),
                    None if index % 3 == 0 else center,
                )
                for index, station in enumerate(stations)
            ]

        got = _assert_same([("downlink", downlink), ("uplink", uplink)])
        assert got["stats"].frames_delivered == 2 * len(stations)

    def test_two_frames_on_one_link(self):
        stations = ["bs-1", "bs-2", "bs-1", "bs-3", "bs-2"]
        other = WeightedBloomFilter(64, 2, seed=9)
        other.add("x", ("q", Fraction(1, 2)))

        def downlink():
            receivers = {station: Node(station) for station in stations}
            sends = _downlink(stations[:3], receivers=receivers)
            sends += _downlink(stations[3:], payload=other, receivers=receivers)
            return sends

        got = _assert_same([("downlink", downlink), ("downlink", downlink)])
        assert [len(inbox) for inbox in got["inboxes"][0]] == [2, 2, 1]

    @pytest.mark.parametrize(
        "config",
        [
            NetworkConfig(latency_s=0.0),
            NetworkConfig(bandwidth_bytes_per_s=1e-3),
            NetworkConfig(latency_s=0.0, bandwidth_bytes_per_s=3.0, max_attempts=1),
        ],
    )
    def test_link_parameters(self, config):
        stations = _station_ids(20)
        _assert_same(
            [
                ("downlink", lambda: _downlink(stations)),
                ("uplink", lambda: _uplink(stations)),
            ],
            config=config,
        )

    def test_a_fixed_timeout_keeps_the_event_loop(self):
        # A timer shorter than the link fires before its frame lands.
        stations = _station_ids(5)
        got = _assert_same(
            [
                ("downlink", lambda: _downlink(stations)),
                ("uplink", lambda: _uplink(stations)),
            ],
            config=NetworkConfig(retransmit_timeout_s=0.001),
        )
        assert got["stats"].retransmit_count > 0

    @pytest.mark.parametrize("direction", ["downlink", "uplink"])
    def test_a_receiver_that_raises_leaves_the_same_ledger(self, direction):
        stations = _station_ids(12)

        def misaddressed():
            if direction == "uplink":
                sends = _uplink(stations)
                sends[7] = (sends[7][0], Node("elsewhere"))
                return sends
            return _downlink(stations, receivers={"bs-7": Node("bs-70")})

        got = _assert_same([(direction, misaddressed)])
        error_type, error_text, _, _ = got["outcomes"][0]
        assert error_type is ValueError and "delivered to" in error_text
        assert 0 < got["stats"].frames_delivered < len(stations)

    def test_a_broadcast_shares_one_decode(self):
        codec.clear_payload_decode_cache()
        stations = _station_ids(6)
        receivers = {station: Node(station) for station in stations}
        SimulatedNetwork().broadcast(_downlink(stations, receivers=receivers))
        artifacts = [receiver.inbox[0].payload for receiver in receivers.values()]
        assert all(artifact == ARTIFACT for artifact in artifacts)
        assert len({id(artifact) for artifact in artifacts}) == 1
        codec.clear_payload_decode_cache()


# -- faulty phases: the event loop over heads and shared payloads -----------------


@pytest.mark.parametrize("attempts", [8, 2])
@pytest.mark.parametrize("partial", [False, True])
@pytest.mark.parametrize("seed", [0, 7, 2024])
@pytest.mark.parametrize("profile", sorted(FAULT_PROFILES))
def test_every_fault_profile_matches_the_reference(profile, seed, partial, attempts):
    # Two attempts make lossy profiles exhaust transfers: a strict phase
    # raises, a partial one reports the failed stations.
    stations = _station_ids(14)
    twice = stations + ["bs-3"]
    _assert_same(
        [
            ("downlink", lambda: _downlink(twice)),
            ("uplink", lambda: _uplink(stations)),
            ("downlink", lambda: _downlink(stations)),
        ],
        config=NetworkConfig(max_attempts=attempts),
        plan=FAULT_PROFILES[profile],
        seed=seed,
        partial=partial,
    )


def test_the_fault_grid_exhausts_transfers():
    # The grid above compares raised errors and failed stations, not only
    # clean phases.
    stations = _station_ids(14)
    outcomes = []
    for partial in (False, True):
        observed = _observe(
            SimulatedNetwork,
            [("uplink", lambda: _uplink(stations))],
            config=NetworkConfig(max_attempts=2),
            plan=FAULT_PROFILES["blackout"],
            partial=partial,
        )
        outcomes.extend(observed["outcomes"])
    strict, partial = outcomes
    assert strict[0] is RoundTimeoutError and strict[2] and strict[3]
    assert partial.failed_ids and partial.delivered_ids


# -- receive_frame against the joined decode -------------------------------------


def _inbox_after(receive, recipient: str, head: bytes, payload: bytes):
    """A fresh node's inbox after ``receive(node, head, payload)``, or what it raised."""
    node = Node(recipient)
    try:
        receive(node, head, payload)
    except Exception as error:  # compared, type and all, across paths
        return "error", type(error), str(error)
    return "ok", node.inbox


def _joined(node: Node, head: bytes, payload: bytes) -> None:
    """The reference: the frame joined and decoded whole."""
    node.receive_wire(head + payload)


def _split(node: Node, head: bytes, payload: bytes) -> None:
    node.receive_frame(head, payload)


def _frame_parts(message: Message) -> tuple[bytes, bytes]:
    payload = message.payload_wire()
    return envelope_head(message.sender, message.recipient, message.kind, len(payload)), payload


FRAME_MESSAGES = [
    Message("data-center", "bs-1", MessageKind.FILTER_DISSEMINATION, ARTIFACT),
    Message("agg-east", "bs-12", MessageKind.FILTER_DISSEMINATION, ARTIFACT),
    Message("bs-3", "data-center", MessageKind.MATCH_REPORT, _reports(2)),
    Message("bs-4", "data-center", MessageKind.MATCH_REPORT, []),
    Message("dc", "é" * 3, MessageKind.CONTROL, None),
    Message("", "", MessageKind.CONTROL, None),
    Message("s" * 200, "bs-1", MessageKind.MATCH_REPORT, _reports(5)),
    Message("bs-1", "r" * 127, MessageKind.MATCH_REPORT, _reports(1)),
]


def _variants(head: bytes, payload: bytes):
    yield "intact", head, payload
    for cut in range(len(head)):
        yield f"head cut at {cut}", head[:cut], payload
    frame = head + payload
    # Every head byte and the payload's header, length-bearing fields and end.
    indices = list(range(min(len(frame), len(head) + 24))) + [len(frame) - 1]
    for index in indices:
        for mask in (0x01, 0x80, 0xFF):
            flipped = frame[:index] + bytes((frame[index] ^ mask,)) + frame[index + 1 :]
            yield f"flip {mask:#x} at {index}", flipped[: len(head)], flipped[len(head) :]
    size = uvarint_bytes(len(payload))
    body = head[: len(head) - len(size)]
    for wrong in (len(payload) - 1, len(payload) + 1, 0):
        if wrong >= 0:
            yield f"length {wrong}", body + uvarint_bytes(wrong), payload
    yield "payload one byte short", head, payload[:-1]
    yield "payload one byte long", head, payload + b"\x00"
    # Non-canonical varints: the joined decode accepts them.
    yield "overlong payload length", body + bytes((size[0] | 0x80,)) + size[1:] + b"\x00", payload
    if head[7] < 0x80:
        overlong_sender = head[:7] + bytes((head[7] | 0x80, 0x00)) + head[8:]
        yield "overlong sender length", overlong_sender, payload
    yield "head and payload split late", head + payload[:3], payload[3:]
    yield "head and payload split early", head[:-2], head[-2:] + payload


def _at_version(block: bytes, version: int) -> bytes:
    return block[:4] + bytes((version,)) + block[5:]


@pytest.mark.parametrize(
    "message", FRAME_MESSAGES, ids=lambda m: f"{m.kind.value}-{len(m.sender)}"
)
def test_receive_frame_matches_the_joined_decode(message):
    head, payload = _frame_parts(message)
    assert head + payload == message.to_wire()
    assert _inbox_after(_split, message.recipient, head, payload) == ("ok", [message])
    for label, head_variant, payload_variant in _variants(head, payload):
        want = _inbox_after(_joined, message.recipient, head_variant, payload_variant)
        got = _inbox_after(_split, message.recipient, head_variant, payload_variant)
        assert got == want, label


@pytest.mark.parametrize("version", [0, 2, 255])
@pytest.mark.parametrize("part", ["envelope", "payload"])
def test_a_header_version_other_than_1_is_refused_on_both_paths(part, version):
    message = FRAME_MESSAGES[0]
    head, payload = _frame_parts(message)
    if part == "envelope":
        head = _at_version(head, version)
    else:
        payload = _at_version(payload, version)
    want = _inbox_after(_joined, message.recipient, head, payload)
    assert want == (
        "error",
        WireFormatError,
        f"unsupported wire version {version} (this build reads only 1)",
    )
    assert _inbox_after(_split, message.recipient, head, payload) == want


def test_receive_frame_finds_a_shared_payload_by_identity():
    codec.clear_payload_decode_cache()
    message = FRAME_MESSAGES[0]
    head, payload = _frame_parts(message)
    first = Node(message.recipient)
    first.receive_frame(head, payload)
    # A broadcast's later frames hand in the same payload object: no copy
    # of it becomes a cache key, and the decoded artifact is shared.
    assert [key is payload for key in codec._PAYLOAD_DECODE_CACHE] == [True]
    second = Node("bs-2")
    second.receive_frame(envelope_head("dc", "bs-2", message.kind, len(payload)), payload)
    assert second.inbox[0].payload is first.inbox[0].payload
    joined = Node(message.recipient)
    joined.receive_wire(head + payload)
    assert joined.inbox == first.inbox == [message]
    codec.clear_payload_decode_cache()
