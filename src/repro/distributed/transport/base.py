"""The one round ledger both network backends run on.

The simulator (:class:`~repro.distributed.network.SimulatedNetwork`) and the
asyncio TCP backend (:mod:`repro.distributed.transport.tcp`) move each logical
:class:`~repro.distributed.messages.Message` of a phase to its receiver as
encoded ``DIMW`` wire bytes, reliably (stop-and-wait ack/retransmit within
:attr:`~repro.distributed.network.NetworkConfig.max_attempts` attempts) and
exactly once (duplicate suppression at the receiver).  :class:`Transport`
owns everything the two have in common: the :class:`FrameStats` ledger, the
byte and message counts, the frame ids, the replayable transcript, the
delivered-frame ledger, the strict/partial failure rule and the
:class:`PhaseOutcome`.  A backend supplies only its byte mover — the
simulator's link model, fault draws and event loop, or TCP's proxy and worker
processes — and drives the ledger through the phase steps here, so the two
agree by construction.  The :class:`~repro.cluster.facade.Cluster` round
engine drives whichever backend :class:`~repro.cluster.spec.TransportSpec`
selected; results and protocol byte accounting are backend-invariant for
fault-free plans (the conformance suite under ``tests/transport/`` pins
this), while latencies are virtual on the simulator and measured wall clock
over real sockets.

A phase's input is one :class:`Frames`: its frames as columns, so a phase of
10,000 frames builds no :class:`~repro.distributed.messages.Message` and no
send pair per frame.  ``broadcast`` and ``gather`` also accept a list of
``(Message, receiver)`` pairs, which they turn into columns once.  An intact
frame reaches its node as its envelope head plus its payload block through
:meth:`~repro.distributed.node.Node.receive_frame` on both backends, so the
frames of a broadcast share one block and one decode.

This module imports neither backend, so both — and the simulator module
itself — can import it without cycles.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Union

from repro.distributed.events import RoundTimeoutError, TranscriptEntry, transcript_to_bytes
from repro.distributed.faults import FaultInjector, FaultPlan, resolve_fault_plan
from repro.distributed.messages import Message
from repro.wire.codec import encode_cached, envelope_head
from repro.wire.errors import WireFormatError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.distributed.messages import MessageKind
    from repro.distributed.network import NetworkConfig
    from repro.distributed.node import Node

#: Stands for "no payload encoded yet" while :meth:`Frames.blocks` runs
#: (``None`` is a payload).
_NO_PAYLOAD = object()

_new_row = tuple.__new__


class Frames:
    """One phase's frames as columns.

    Per frame: a sender, a recipient, a kind, a payload (the frames of a
    broadcast repeat one object) and the node that receives it (``None``
    delivers to no node).  :meth:`blocks` encodes each payload
    once and keeps the blocks, so whoever built the frames reads the bytes
    that were sent.
    """

    __slots__ = ("senders", "recipients", "kinds", "payloads", "receivers", "_blocks")

    def __init__(self) -> None:
        self.senders: list[str] = []
        self.recipients: list[str] = []
        self.kinds: list["MessageKind"] = []
        self.payloads: list[object] = []
        self.receivers: list["Node | None"] = []
        self._blocks: list[bytes] = []

    @classmethod
    def of(cls, sends: "Frames | Iterable[tuple[Message, Node | None]]") -> "Frames":
        """``sends`` itself when it is :class:`Frames`, else its pairs as columns."""
        if isinstance(sends, cls):
            return sends
        frames = cls()
        for message, receiver in sends:
            frames.add(message.sender, message.recipient, message.kind, message.payload, receiver)
        return frames

    def add(
        self,
        sender: str,
        recipient: str,
        kind: "MessageKind",
        payload: object,
        receiver: "Node | None",
    ) -> None:
        """Append one frame."""
        self.senders.append(sender)
        self.recipients.append(recipient)
        self.kinds.append(kind)
        self.payloads.append(payload)
        self.receivers.append(receiver)

    def __len__(self) -> int:
        return len(self.senders)

    @property
    def encoded_count(self) -> int:
        """How many leading frames :meth:`blocks` has encoded.

        After :meth:`blocks` raised, these are the frames before the refused
        one.
        """
        return len(self._blocks)

    def blocks(self) -> list[bytes]:
        """Each frame's payload block, in frame order.

        A run of frames carrying one payload object shares one block, and an
        artifact's block comes from the codec's encode cache, so a broadcast
        encodes its artifact once.  Raises
        :class:`~repro.wire.errors.UnsupportedWireTypeError` at the first
        frame whose payload the wire cannot carry; the blocks before it stay.
        """
        blocks = self._blocks
        payloads = self.payloads
        shared = _NO_PAYLOAD
        block = None
        for index in range(len(blocks), len(payloads)):
            payload = payloads[index]
            if payload is not shared:
                block = encode_cached(payload)
                shared = payload
            blocks.append(block)
        return blocks


#: What :meth:`Transport.broadcast` and :meth:`Transport.gather` take.
Sends = Union[Frames, "Iterable[tuple[Message, Node | None]]"]


class DeliveredFrames:
    """The delivered-frame ledger behind :meth:`Transport.delivered_payloads`.

    Flat columns — direction, station endpoint, and each accepted frame as a
    head plus a payload block, in delivery order — grouped per station and
    joined only when read, so a round holds no container per frame or per
    station, and the frames of a broadcast share their one payload block.
    """

    __slots__ = ("_directions", "_stations", "_heads", "_payloads")

    def __init__(self) -> None:
        self._directions: list[str] = []
        self._stations: list[str] = []
        self._heads: list[bytes] = []
        self._payloads: list[bytes] = []

    def record(self, direction: str, station: str, head: bytes, payload: bytes) -> None:
        """Append one accepted frame: ``head + payload``."""
        self._directions.append(direction)
        self._stations.append(station)
        self._heads.append(head)
        self._payloads.append(payload)

    def grouped(self, direction: str) -> dict[str, tuple[bytes, ...]]:
        """Each station's frames for ``direction``, in delivery order.

        Stations appear in the order of their first delivered frame.
        """
        grouped: dict[str, list[bytes]] = {}
        for recorded, station, head, payload in zip(
            self._directions, self._stations, self._heads, self._payloads
        ):
            if recorded == direction:
                grouped.setdefault(station, []).append(head + payload)
        return {station: tuple(frames) for station, frames in grouped.items()}


@dataclass(frozen=True)
class FrameStats:
    """Frame-level ledger of one network's activity.

    Conservation invariant (asserted by the property suite): every emitted
    frame is eventually delivered, suppressed as a duplicate/late arrival,
    dropped, or rejected as corrupt — ``frames_in_flight`` is zero once a
    phase completes.
    """

    frames_sent: int = 0
    frames_delivered: int = 0
    frames_dropped: int = 0
    frames_corrupt: int = 0
    frames_duplicate: int = 0
    retransmit_count: int = 0
    timeout_count: int = 0
    corrupt_caught_by_codec: int = 0
    corrupt_caught_by_checksum: int = 0
    payload_bytes_sent: int = 0
    payload_bytes_delivered: int = 0

    @property
    def frames_in_flight(self) -> int:
        """Emitted frames not yet accounted for (zero between phases)."""
        return (
            self.frames_sent
            - self.frames_delivered
            - self.frames_duplicate
            - self.frames_dropped
            - self.frames_corrupt
        )

    @property
    def goodput_fraction(self) -> float:
        """Unique delivered payload bytes over total bytes put on the wire."""
        if self.payload_bytes_sent == 0:
            return 1.0
        return self.payload_bytes_delivered / self.payload_bytes_sent


@dataclass(frozen=True)
class PhaseOutcome:
    """Result of one broadcast/gather phase."""

    direction: str
    duration_s: float
    #: Station endpoints whose transfer completed, in send order.
    delivered_ids: tuple[str, ...]
    #: Station endpoints whose transfer timed out (``allow_partial`` only).
    failed_ids: tuple[str, ...]


class Transfer:
    """One frame's reliable delivery state, on either backend.

    A phase that runs frame by frame keeps one per frame: its id, endpoints
    and kind, the node that receives it, its envelope head and payload block,
    its size on the wire, the station endpoint it counts against, and how far
    its delivery has come.  A backend may add what its byte mover needs (the
    TCP backend: the frame's checksum and an event to wait on).
    """

    __slots__ = (
        "frame_id",
        "sender",
        "recipient",
        "kind",
        "receiver",
        "direction",
        "head",
        "payload",
        "size",
        "station",
        "attempts",
        "delivered",
        "failed",
        "resolved_at",
    )

    def __init__(
        self,
        frame_id: int,
        sender: str,
        recipient: str,
        kind: str,
        receiver: "Node | None",
        direction: str,
        head: bytes,
        payload: bytes,
        size: int,
    ) -> None:
        self.frame_id = frame_id
        self.sender = sender
        self.recipient = recipient
        self.kind = kind
        self.receiver = receiver
        self.direction = direction
        self.head = head
        self.payload = payload
        self.size = size
        self.station = recipient if direction == "downlink" else sender
        self.attempts = 0
        self.delivered = False
        self.failed = False
        self.resolved_at = 0.0

    @classmethod
    def per_frame(
        cls,
        frames: Frames,
        direction: str,
        first_id: int,
        heads: list[bytes],
        blocks: list[bytes],
        sizes: list[int],
    ) -> list:
        """One transfer per frame of a phase :meth:`Transport._open_phase` opened."""
        senders, recipients, kinds, receivers = (
            frames.senders, frames.recipients, frames.kinds, frames.receivers
        )
        return [
            cls(
                first_id + index,
                senders[index],
                recipients[index],
                kinds[index].value,
                receivers[index],
                direction,
                heads[index],
                blocks[index],
                sizes[index],
            )
            for index in range(len(sizes))
        ]


class Transport(abc.ABC):
    """Reliable, exactly-once, frame-accounted message transport for one round.

    One instance carries one round's traffic: phases run sequentially
    (downlink broadcast, station matching, uplink gather), all byte/frame
    accounting accumulates on the instance, and the transcript records every
    frame event.  A transfer that exhausts its retransmission budget either
    raises :class:`~repro.distributed.events.RoundTimeoutError` or — when the
    transport allows partial phases — surfaces through
    :attr:`PhaseOutcome.failed_ids`.

    This class is the whole ledger.  A backend implements :meth:`broadcast`
    and :meth:`gather` by moving bytes and reporting each frame event through
    the phase steps below: :meth:`_open_phase` (then
    :meth:`Transfer.per_frame`), :meth:`_charge`, :meth:`_record`,
    :meth:`_caught_by_codec` and :meth:`_count_corrupt`,
    :meth:`_mark_delivered`, :meth:`_mark_failed`, :meth:`_hand_over`, and
    :meth:`_settle` or :meth:`_close_phase`.
    """

    def __init__(
        self,
        config: "NetworkConfig",
        fault_plan: FaultPlan | str | None = None,
        seed: int = 0,
        allow_partial: bool = False,
    ) -> None:
        self._config = config
        self._plan = resolve_fault_plan(fault_plan)
        self._injector = FaultInjector(self._plan, seed)
        self._allow_partial = bool(allow_partial)
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

    # -- sending -----------------------------------------------------------------

    @abc.abstractmethod
    def broadcast(self, sends: Sends) -> PhaseOutcome:
        """Run one downlink phase: the center's frames to many stations."""

    @abc.abstractmethod
    def gather(self, sends: Sends) -> PhaseOutcome:
        """Run one uplink phase: station reports into the center's ingress."""

    # -- configuration -----------------------------------------------------------

    @property
    def config(self) -> "NetworkConfig":
        """The link/reliability parameters in use."""
        return self._config

    @property
    def fault_plan(self) -> FaultPlan:
        """The fault plan frames are exposed to."""
        return self._plan

    @property
    def seed(self) -> int:
        """The network seed all fault decisions derive from."""
        return self._injector.seed

    # -- accounting --------------------------------------------------------------

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
        """Aggregate transmission time (virtual on the simulator, wall on TCP).

        Downlink phases run on parallel per-station links (max over phases,
        one phase per round); uplink phases serialize at the ingress (sum).
        """
        downlink = max(self._downlink_durations) if self._downlink_durations else 0.0
        return downlink + sum(self._uplink_durations)

    @property
    def transcript(self) -> tuple[TranscriptEntry, ...]:
        """The event transcript recorded so far (wall-clock times on TCP)."""
        return tuple(self._transcript)

    def transcript_bytes(self) -> bytes:
        """Canonical byte rendering of the transcript (the replay token)."""
        return transcript_to_bytes(self._transcript)

    def delivered_payloads(self, direction: str) -> dict[str, tuple[bytes, ...]]:
        """Unique delivered frame bytes per station endpoint for ``direction``.

        The conformance battery compares these across backends: for a
        fault-free plan the exact wire bytes each station's report (uplink) or
        artifact copy (downlink) delivered must be identical on the simulator
        and over real sockets.  Every delivered message is a frame: a payload
        outside the wire vocabulary fails its phase before anything is sent.
        """
        return self._delivered.grouped(direction)

    # -- the phase steps ---------------------------------------------------------

    def _open_phase(
        self, frames: Frames, direction: str
    ) -> tuple[int, list[bytes], list[bytes], list[int]]:
        """Number a phase's frames and write its row.

        Returns the first frame id and each frame's envelope head, payload
        block and size, in frame order.  A payload outside the wire vocabulary
        raises :class:`~repro.wire.errors.UnsupportedWireTypeError` before the
        phase sends anything or writes its row; the frames before it count as
        offered.
        """
        first_id = self._next_frame_id
        try:
            blocks = frames.blocks()
        finally:
            offered = frames.encoded_count
            self._message_count += offered
            self._next_frame_id += offered
        heads = list(
            map(envelope_head, frames.senders, frames.recipients, frames.kinds, map(len, blocks))
        )
        sizes = [len(head) + len(block) for head, block in zip(heads, blocks)]
        transcript = self._transcript
        transcript.append(
            _new_row(
                TranscriptEntry,
                (len(transcript), 0.0, "phase", -1, len(sizes), "-", "-", direction, 0),
            )
        )
        return first_id, heads, blocks, sizes

    def _record(self, time_s: float, event: str, transfer: Transfer, attempt: int) -> None:
        """Append one frame event's transcript row."""
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
                    transfer.sender,
                    transfer.recipient,
                    transfer.kind,
                    transfer.size,
                ),
            )
        )

    def _charge(self, direction: str, size: int) -> None:
        """Count one frame copy put on a link."""
        self._frames_sent += 1
        self._payload_bytes_sent += size
        if direction == "downlink":
            self._downlink_bytes += size
        else:
            self._uplink_bytes += size

    def _caught_by_codec(self, data: bytes) -> bool:
        """Whether the codec rejects a corrupt copy; else only its checksum does.

        The real decode runs on the corrupt bytes, so the codec's typed-error
        contract is exercised for real, and the checksum is the backstop for
        corruptions the codec cannot see: a corrupt frame is never accepted.
        """
        try:
            Message.from_wire(data)
        except WireFormatError:
            return True
        return False

    def _count_corrupt(
        self, time_s: float, transfer: Transfer, attempt: int, caught_by_codec: bool
    ) -> None:
        """Count one rejected corrupt copy of ``transfer``'s frame."""
        if caught_by_codec:
            self._corrupt_caught_by_codec += 1
        else:
            self._corrupt_caught_by_checksum += 1
        self._frames_corrupt += 1
        self._record(time_s, "corrupt", transfer, attempt)

    def _mark_delivered(self, time_s: float, transfer: Transfer, attempt: int) -> None:
        """Resolve ``transfer`` as delivered at ``time_s``."""
        transfer.delivered = True
        transfer.resolved_at = time_s
        self._frames_delivered += 1
        self._payload_bytes_delivered += transfer.size
        self._record(time_s, "deliver", transfer, attempt)

    def _mark_failed(self, time_s: float, transfer: Transfer, attempt: int) -> None:
        """Resolve ``transfer`` as timed out at ``time_s``."""
        transfer.failed = True
        transfer.resolved_at = time_s
        self._timeout_count += 1
        self._record(time_s, "timeout", transfer, attempt)

    def _hand_over(self, transfer: Transfer) -> None:
        """Give an intact frame to its node and add it to the delivered frames."""
        receiver = transfer.receiver
        if receiver is not None:
            receiver.receive_frame(transfer.head, transfer.payload)
        self._delivered.record(
            transfer.direction, transfer.station, transfer.head, transfer.payload
        )

    def _settle(self, transfers: list[Transfer], direction: str) -> PhaseOutcome:
        """End a phase run frame by frame: its outcome, or the round's failure.

        Without ``allow_partial`` a transfer that never delivered raises
        :class:`~repro.distributed.events.RoundTimeoutError`, naming the
        failed transfers and the stations whose frames did arrive.
        """
        delivered = tuple(t.station for t in transfers if t.delivered)
        failed = [t for t in transfers if not t.delivered]
        if failed and not self._allow_partial:
            labels = tuple(f"{t.sender}->{t.recipient}" for t in failed)
            raise RoundTimeoutError(
                f"{len(failed)} {direction} transfer(s) exhausted "
                f"{self._config.max_attempts} attempts under fault plan "
                f"{self._plan.name!r} (seed {self._injector.seed}): "
                + ", ".join(labels),
                failed_transfers=labels,
                delivered_ids=delivered,
            )
        duration = max((t.resolved_at for t in transfers), default=0.0)
        return self._close_phase(
            direction, duration, delivered, tuple(t.station for t in failed)
        )

    def _close_phase(
        self,
        direction: str,
        duration: float,
        delivered_ids: tuple[str, ...],
        failed_ids: tuple[str, ...],
    ) -> PhaseOutcome:
        """Book a finished phase's duration and return its outcome."""
        if direction == "downlink":
            self._downlink_durations.append(duration)
        else:
            self._uplink_durations.append(duration)
        return PhaseOutcome(
            direction=direction,
            duration_s=duration,
            delivered_ids=delivered_ids,
            failed_ids=failed_ids,
        )
