"""Deterministic event-driven network between the data center and base stations.

The model keeps the two properties the paper's communication argument depends
on — the wireless backhaul has limited bandwidth, and every station shares the
data center's ingress link when uploading (downlink broadcasts run on parallel
per-station links; uplink transfers serialize at the center) — but executes
them as a discrete-event simulation on a virtual clock instead of closed-form
accounting:

* every logical :class:`~repro.distributed.messages.Message` is encoded to its
  real wire bytes and transmitted as a *frame* over a link with queueing,
  latency and transfer time;
* a seeded :class:`~repro.distributed.faults.FaultPlan` may drop, duplicate,
  corrupt, delay (reorder) or black out frames at send time — every decision a
  pure function of ``(net seed, frame id, attempt)``, so runs replay exactly;
* the data center's reliability policy is stop-and-wait ack/retransmit per
  logical message: deliveries are acknowledged instantly and at zero cost
  (acks and frame headers are link-layer fictions that never enter the byte
  accounting), lost or corrupted frames retransmit after a timeout, and a
  transfer that exhausts :attr:`NetworkConfig.max_attempts` either fails the
  round with a typed :class:`~repro.distributed.events.RoundTimeoutError` or —
  under ``allow_partial`` — drops out of the round, which the caller observes
  through :class:`PhaseOutcome.failed_ids`;
* receivers accept a frame only if its link-layer checksum matches *and* the
  wire codec decodes it; corrupted frames therefore exercise the real
  :class:`~repro.wire.errors.WireFormatError` path and can never surface as
  wrong matches (the checksum is the backstop for corruptions the codec alone
  would miss — both cases are counted separately in :class:`FrameStats`).

Under the all-zero fault plan the event-driven execution reproduces the legacy
accounting model *exactly*: identical byte counts and bit-identical
transmission times (downlink = max over stations, uplink = sum at the ingress),
which the simulation-test harness pins.  With the automatic retransmit timeout
such a phase cannot lose a frame or fire a timer, so it runs in one pass over
its frames instead of through the event loop, with the same transcript.

A frame travels as its envelope head plus its payload block: every frame of a
broadcast shares the one payload ``bytes`` object, which the receivers' decode
cache finds the artifact by.  Only a corrupted copy is joined into one buffer.

Every frame event is recorded as a
:class:`~repro.distributed.events.TranscriptEntry`; the canonical transcript
bytes are the replay token the seed-replay tests compare across runs and
executors.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Sequence

from repro.distributed.events import (
    EventLoop,
    RoundTimeoutError,
    TranscriptEntry,
    transcript_to_bytes,
)
from repro.distributed.faults import (
    NO_FRAME_FAULTS,
    FaultInjector,
    FaultPlan,
    resolve_fault_plan,
)
from repro.distributed.messages import Message
from repro.distributed.node import Node
from repro.distributed.transport.base import (
    DeliveredFrames,
    FrameStats,
    PhaseOutcome,
    Transport,
)
from repro.utils.validation import require_non_negative, require_positive
from repro.wire.codec import envelope_head
from repro.wire.errors import UnsupportedWireTypeError, WireFormatError

__all__ = [
    "FrameStats",
    "NetworkConfig",
    "PhaseOutcome",
    "SimulatedNetwork",
]

#: All uplink transfers serialize on this shared link (the center's ingress).
_UPLINK_INGRESS = "uplink:center-ingress"

_new_row = tuple.__new__

#: Stands for "no payload looked up yet" while a phase builds its frames
#: (``None`` is a payload).
_NO_PAYLOAD = object()


@dataclass(frozen=True)
class NetworkConfig:
    """Link and reliability parameters of the simulated backhaul."""

    #: Sustained throughput of each link, in bytes per second.
    bandwidth_bytes_per_s: float = 2_000_000.0
    #: Fixed per-message latency in seconds.
    latency_s: float = 0.02
    #: Retransmission budget per logical message (first attempt included).
    max_attempts: int = 8
    #: Fixed retransmit timeout in seconds; ``None`` sizes it per frame
    #: (occupancy + two propagation delays + the plan's jitter bound).
    retransmit_timeout_s: float | None = None

    def __post_init__(self) -> None:
        require_positive(self.bandwidth_bytes_per_s, "bandwidth_bytes_per_s")
        require_non_negative(self.latency_s, "latency_s")
        if not isinstance(self.max_attempts, int) or self.max_attempts < 1:
            raise ValueError(f"max_attempts must be a positive integer, got {self.max_attempts!r}")
        if self.retransmit_timeout_s is not None:
            require_positive(self.retransmit_timeout_s, "retransmit_timeout_s")

    def transfer_time_s(self, size_bytes: int) -> float:
        """Simulated time to move ``size_bytes`` over one link."""
        require_non_negative(size_bytes, "size_bytes")
        return self.latency_s + size_bytes / self.bandwidth_bytes_per_s


class _Transfer:
    """One logical message's reliable delivery state."""

    __slots__ = (
        "frame_id",
        "message",
        "receiver",
        "direction",
        "head",
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

    def __init__(
        self,
        frame_id: int,
        message: Message,
        receiver: Node | None,
        direction: str,
        head: bytes | None,
        payload: bytes | None,
        size: int,
        occupancy: float,
    ) -> None:
        self.frame_id = frame_id
        self.message = message
        self.receiver = receiver
        self.direction = direction
        self.head = head
        self.payload = payload
        self.size = size
        self.occupancy = occupancy
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


class SimulatedNetwork(Transport):
    """Event-driven reliable transport with seeded fault injection.

    One instance models one round's network: phases run sequentially on a
    per-phase virtual clock, all byte/latency accounting accumulates here, and
    the transcript records every frame event in a canonical replayable form.
    """

    def __init__(
        self,
        config: NetworkConfig | None = None,
        fault_plan: FaultPlan | str | None = None,
        seed: int = 0,
        decode_backend: str = "auto",
        allow_partial: bool = False,
    ) -> None:
        self._config = config or NetworkConfig()
        self._plan = resolve_fault_plan(fault_plan)
        self._injector = FaultInjector(self._plan, seed)
        self._fault_free = self._plan.is_fault_free
        self._decode_backend = decode_backend
        self._allow_partial = bool(allow_partial)
        self._loop = EventLoop()
        self._link_free: dict[str, float] = {}
        self._downlink_bytes = 0
        self._uplink_bytes = 0
        self._message_count = 0
        self._downlink_durations: list[float] = []
        self._uplink_durations: list[float] = []
        self._transcript: list[TranscriptEntry] = []
        self._delivered = DeliveredFrames()
        self._next_frame_id = 0
        self._frames_sent = 0
        self._frames_delivered = 0
        self._frames_dropped = 0
        self._frames_corrupt = 0
        self._frames_duplicate = 0
        self._retransmit_count = 0
        self._timeout_count = 0
        self._corrupt_caught_by_codec = 0
        self._corrupt_caught_by_checksum = 0
        self._payload_bytes_sent = 0
        self._payload_bytes_delivered = 0

    # -- configuration and accounting -------------------------------------------

    @property
    def config(self) -> NetworkConfig:
        """The link parameters in use."""
        return self._config

    @property
    def fault_plan(self) -> FaultPlan:
        """The fault plan frames are exposed to."""
        return self._plan

    @property
    def seed(self) -> int:
        """The network seed all fault decisions derive from."""
        return self._injector.seed

    @property
    def downlink_bytes(self) -> int:
        """Bytes put on center→station links (retransmits and duplicates included)."""
        return self._downlink_bytes

    @property
    def uplink_bytes(self) -> int:
        """Bytes put on the station→center ingress (retransmits included)."""
        return self._uplink_bytes

    @property
    def message_count(self) -> int:
        """Logical messages offered to the transport."""
        return self._message_count

    @property
    def transcript(self) -> tuple[TranscriptEntry, ...]:
        """The deterministic event transcript recorded so far."""
        return tuple(self._transcript)

    def transcript_bytes(self) -> bytes:
        """Canonical byte rendering of the transcript (the replay token)."""
        return transcript_to_bytes(self._transcript)

    def delivered_payloads(self, direction: str) -> dict[str, tuple[bytes, ...]]:
        """Unique delivered frame bytes per station for ``direction``.

        The cross-transport conformance battery compares these against the
        TCP backend's: for fault-free plans the exact wire bytes must match.
        """
        return self._delivered.grouped(direction)

    def frame_stats(self) -> FrameStats:
        """Snapshot of the frame-level ledger."""
        return FrameStats(
            frames_sent=self._frames_sent,
            frames_delivered=self._frames_delivered,
            frames_dropped=self._frames_dropped,
            frames_corrupt=self._frames_corrupt,
            frames_duplicate=self._frames_duplicate,
            retransmit_count=self._retransmit_count,
            timeout_count=self._timeout_count,
            corrupt_caught_by_codec=self._corrupt_caught_by_codec,
            corrupt_caught_by_checksum=self._corrupt_caught_by_checksum,
            payload_bytes_sent=self._payload_bytes_sent,
            payload_bytes_delivered=self._payload_bytes_delivered,
        )

    def transmission_time_s(self) -> float:
        """Aggregate simulated transmission time.

        Downlink phases run on parallel per-station links (max over phases,
        one phase per round); uplink phases serialize at the ingress (sum).
        """
        downlink = max(self._downlink_durations) if self._downlink_durations else 0.0
        return downlink + sum(self._uplink_durations)

    def reset(self) -> None:
        """Clear all recorded traffic, the transcript and the ledger."""
        self._loop.reset(0.0)
        self._link_free.clear()
        self._downlink_bytes = 0
        self._uplink_bytes = 0
        self._message_count = 0
        self._downlink_durations.clear()
        self._uplink_durations.clear()
        self._transcript.clear()
        self._delivered.clear()
        self._next_frame_id = 0
        self._frames_sent = 0
        self._frames_delivered = 0
        self._frames_dropped = 0
        self._frames_corrupt = 0
        self._frames_duplicate = 0
        self._retransmit_count = 0
        self._timeout_count = 0
        self._corrupt_caught_by_codec = 0
        self._corrupt_caught_by_checksum = 0
        self._payload_bytes_sent = 0
        self._payload_bytes_delivered = 0

    # -- sending -----------------------------------------------------------------

    def broadcast(
        self, sends: Sequence[tuple[Message, Node | None]]
    ) -> PhaseOutcome:
        """Run one downlink phase: the center's messages to many stations."""
        return self._run_phase(list(sends), "downlink")

    def gather(self, sends: Sequence[tuple[Message, Node | None]]) -> PhaseOutcome:
        """Run one uplink phase: station reports into the center's ingress."""
        return self._run_phase(list(sends), "uplink")

    def send_downlink(self, message: Message, receiver: Node | None = None) -> float:
        """Deliver one center→station message; return its phase duration.

        Kept for accounting-style callers; a full round should use
        :meth:`broadcast` so the whole dissemination shares one phase clock.
        """
        return self.broadcast([(message, receiver)]).duration_s

    def send_uplink(self, message: Message, receiver: Node | None = None) -> float:
        """Deliver one station→center message; return its phase duration."""
        return self.gather([(message, receiver)]).duration_s

    # -- the phase engine ---------------------------------------------------------

    def _record(self, time_s: float, event: str, transfer: _Transfer, attempt: int) -> None:
        message = transfer.message
        transcript = self._transcript
        # The row is built as the tuple it is, without the named tuple's
        # Python-level ``__new__``: one row per frame event adds up.
        transcript.append(
            _new_row(
                TranscriptEntry,
                (
                    len(transcript),
                    time_s,
                    event,
                    transfer.frame_id,
                    attempt,
                    message.sender,
                    message.recipient,
                    transfer.kind,
                    transfer.size,
                ),
            )
        )

    def _frames(
        self, sends: list[tuple[Message, Node | None]]
    ) -> tuple[list[bytes | None], list[bytes | None], list[int]]:
        """Each send's envelope head, payload block and size, in send order.

        Consecutive messages carrying one payload object at one wire version
        — a broadcast's artifact — share its block, looked up once.  A payload
        outside the wire vocabulary has no head or block; it travels as an
        object and is charged its estimated size.
        """
        heads: list[bytes | None] = []
        payloads: list[bytes | None] = []
        sizes: list[int] = []
        shared = _NO_PAYLOAD
        shared_version = block = None
        try:
            for message, _receiver in sends:
                if message.payload is not shared or message.wire_version != shared_version:
                    try:
                        block = message.payload_wire()
                    except UnsupportedWireTypeError:
                        sizes.append(message.size_bytes())
                        heads.append(None)
                        payloads.append(None)
                        shared = _NO_PAYLOAD
                        continue
                    shared = message.payload
                    shared_version = message.wire_version
                head = envelope_head(message, len(block))
                sizes.append(len(head) + len(block))
                heads.append(head)
                payloads.append(block)
        finally:
            # A message whose frame cannot be built ends the phase before it
            # starts; those before it were offered.
            self._message_count += len(sizes)
            self._next_frame_id += len(sizes)
        return heads, payloads, sizes

    def _run_phase(
        self, sends: list[tuple[Message, Node | None]], direction: str
    ) -> PhaseOutcome:
        first_id = self._next_frame_id
        heads, payloads, sizes = self._frames(sends)
        self._transcript.append(
            _new_row(
                TranscriptEntry,
                (len(self._transcript), 0.0, "phase", -1, len(sends), "-", "-", direction, 0),
            )
        )
        config = self._config
        if self._fault_free and config.retransmit_timeout_s is None:
            return self._run_in_one_pass(sends, direction, first_id, heads, payloads, sizes)
        self._loop.reset(0.0)
        self._link_free.clear()
        latency = config.latency_s
        bandwidth = config.bandwidth_bytes_per_s
        transfers = [
            _Transfer(
                first_id + index,
                message,
                receiver,
                direction,
                heads[index],
                payloads[index],
                sizes[index],
                # The size never changes, so neither does the unstretched
                # link time.
                latency + sizes[index] / bandwidth,
            )
            for index, (message, receiver) in enumerate(sends)
        ]
        for transfer in transfers:
            self._schedule_attempt(0.0, transfer, False)
        self._loop.run()
        failed = [t for t in transfers if not t.delivered]
        if failed and not self._allow_partial:
            labels = tuple(
                f"{t.message.sender}->{t.message.recipient}" for t in failed
            )
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

    def _run_in_one_pass(
        self,
        sends: list[tuple[Message, Node | None]],
        direction: str,
        first_id: int,
        heads: list[bytes | None],
        payloads: list[bytes | None],
        sizes: list[int],
    ) -> PhaseOutcome:
        """Run a phase in which no frame can be lost: no transfer, no event.

        Exact for a fault-free plan under the automatic retransmit timeout.
        Every frame is sent once, at its link's free time (a station's own
        downlink link, or the one uplink ingress, where a frame starts as the
        previous one lands), and lands ``occupancy`` later; its timer would
        fire at ``start + occupancy + 2 * latency`` or later, and float
        addition is monotonic, so no timer fires before its frame lands.  The
        event loop would therefore record every send in send order and then
        every delivery in ``(arrival, send order)`` order — its heap's
        ``(time, sequence)`` — which is what this does, counting each delivery
        as it happens, so a receiver that raises leaves the same ledger.
        """
        config = self._config
        latency = config.latency_s
        bandwidth = config.bandwidth_bytes_per_s
        transcript = self._transcript
        downlink = direction == "downlink"
        link_free: dict[str, float] = {}
        ingress_free = 0.0
        arrivals: list[float] = []
        sent: list[TranscriptEntry] = []
        sequence = len(transcript)
        kind = kind_value = None
        for index, (message, _receiver) in enumerate(sends):
            size = sizes[index]
            recipient = message.recipient
            if downlink:
                start = link_free.get(recipient, 0.0)
                arrival = link_free[recipient] = start + (latency + size / bandwidth)
            else:
                start = ingress_free
                arrival = ingress_free = start + (latency + size / bandwidth)
            arrivals.append(arrival)
            if message.kind is not kind:
                kind = message.kind
                kind_value = kind.value
            sent.append(
                _new_row(
                    TranscriptEntry,
                    (
                        sequence + index,
                        start,
                        "send",
                        first_id + index,
                        1,
                        message.sender,
                        recipient,
                        kind_value,
                        size,
                    ),
                )
            )
        transcript.extend(sent)
        sent_bytes = sum(sizes)
        self._frames_sent += len(sizes)
        self._payload_bytes_sent += sent_bytes
        if downlink:
            self._downlink_bytes += sent_bytes
        else:
            self._uplink_bytes += sent_bytes

        backend = self._decode_backend
        record = self._delivered.record
        append = transcript.append
        for index in sorted(range(len(arrivals)), key=arrivals.__getitem__):
            _, _, _, frame_id, _, sender, recipient, kind_value, size = sent[index]
            receiver = sends[index][1]
            head = heads[index]
            payload = payloads[index]
            if receiver is not None:
                if payload is not None:
                    receiver.receive_frame(head, payload, backend)
                else:
                    receiver.receive(sends[index][0])
            self._frames_delivered += 1
            self._payload_bytes_delivered += size
            if payload is not None:
                record(direction, recipient if downlink else sender, head, payload)
            append(
                _new_row(
                    TranscriptEntry,
                    (
                        len(transcript),
                        arrivals[index],
                        "deliver",
                        frame_id,
                        1,
                        sender,
                        recipient,
                        kind_value,
                        size,
                    ),
                )
            )

        duration = max(arrivals, default=0.0)
        if downlink:
            self._downlink_durations.append(duration)
        else:
            self._uplink_durations.append(duration)
        return PhaseOutcome(
            direction=direction,
            duration_s=duration,
            delivered_ids=tuple(row.recipient if downlink else row.sender for row in sent),
            failed_ids=(),
        )

    def _charge(self, transfer: _Transfer) -> None:
        self._frames_sent += 1
        self._payload_bytes_sent += transfer.size
        if transfer.direction == "downlink":
            self._downlink_bytes += transfer.size
        else:
            self._uplink_bytes += transfer.size

    def _schedule_attempt(self, time_s: float, transfer: _Transfer, retransmit: bool) -> None:
        """Send the next attempt of ``transfer`` (also the retransmit timer's callback).

        An intact frame that lands no later than its timer would fire resolves
        the transfer first (the arrival is scheduled first, so it also wins a
        tie), and a timer on a resolved transfer does nothing — so such a
        frame gets no timer.
        """
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
        # Corruption needs bytes to flip; a payload outside the codec's
        # vocabulary travels as an opaque object, so the fault degrades to loss.
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
                # Corruption flips bytes of the frame as one buffer.
                data = injector.corrupt_bytes(
                    transfer.head + data, transfer.frame_id, attempt
                )
            self._loop.schedule(arrival, self._on_arrival, transfer, data)
            if faults.duplicate:
                # A network-generated duplicate: a pristine second copy
                # trailing the original by one propagation delay.
                self._charge(transfer)
                self._record(start, "dup-send", transfer, attempt)
                self._loop.schedule(
                    arrival + config.latency_s, self._on_arrival, transfer, transfer.payload
                )

        rto = config.retransmit_timeout_s
        if rto is None:
            rto = occupancy + 2.0 * config.latency_s + self._plan.jitter_s
        if attempt >= config.max_attempts:
            # Final attempt: give reordered frames time to land before the
            # transfer is declared dead.
            rto += self._plan.reorder_delay_s + config.latency_s
        timer_at = start + rto
        if arrival is None or faults.corrupt or arrival > timer_at:
            self._loop.schedule(timer_at, self._schedule_attempt, transfer, True)

    def _on_arrival(self, time_s: float, transfer: _Transfer, data: bytes | None) -> None:
        if transfer.delivered or transfer.failed:
            # A duplicate emission, a spurious retransmission, or a reordered
            # frame landing after the transfer was resolved.
            self._frames_duplicate += 1
            self._record(time_s, "duplicate", transfer, transfer.attempts)
            return
        payload = transfer.payload
        if data is not payload and zlib.crc32(data) != zlib.crc32(
            payload, zlib.crc32(transfer.head)
        ):
            # Frames arrive either as the sender's own (immutable) payload
            # object or as a corrupted copy of the joined frame, and only a
            # copy needs its checksum verified.  The receiver still runs the
            # real decode on the corrupt bytes — the codec's typed-error
            # contract is exercised for real — and the checksum is the
            # backstop for corruptions the codec cannot see, so a corrupt
            # frame can never be accepted.
            try:
                Message.from_wire(data, backend=self._decode_backend)
            except WireFormatError:
                self._corrupt_caught_by_codec += 1
            else:
                self._corrupt_caught_by_checksum += 1
            self._frames_corrupt += 1
            self._record(time_s, "corrupt", transfer, transfer.attempts)
            return
        receiver = transfer.receiver
        if receiver is not None:
            if data is not payload:
                # A copy the checksum passed is decoded in full.
                receiver.receive_wire(data, backend=self._decode_backend)
            elif payload is not None:
                receiver.receive_frame(transfer.head, payload, self._decode_backend)
            else:
                receiver.receive(transfer.message)
        transfer.delivered = True
        transfer.resolved_at = time_s
        self._frames_delivered += 1
        self._payload_bytes_delivered += transfer.size
        if payload is not None:
            self._delivered.record(transfer.direction, transfer.station, transfer.head, payload)
        self._record(time_s, "deliver", transfer, transfer.attempts)
