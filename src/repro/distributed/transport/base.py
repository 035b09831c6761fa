"""The ``Transport`` interface every network backend implements.

PR 3's :class:`~repro.distributed.network.SimulatedNetwork` and the asyncio
TCP backend (:mod:`repro.distributed.transport.tcp`) are two implementations
of one contract: move each logical
:class:`~repro.distributed.messages.Message` of a phase to its receiver as
encoded ``DIMW`` wire bytes, reliably (stop-and-wait ack/retransmit within
:attr:`~repro.distributed.network.NetworkConfig.max_attempts` attempts),
exactly once (duplicate suppression at the receiver), and account every frame
in a :class:`FrameStats` ledger plus a replayable transcript.  The
:class:`~repro.cluster.facade.Cluster` round engine drives whichever backend
:class:`~repro.cluster.spec.TransportSpec` selected; results and protocol
byte accounting are backend-invariant for fault-free plans (the conformance
suite under ``tests/transport/`` pins this), while latencies are virtual on
the simulator and measured wall clock over real sockets.

This module is dependency-light on purpose: it defines only the interface and
the shared value types (:class:`FrameStats`, :class:`PhaseOutcome`), so both
backends — and the simulator module itself — can import it without cycles.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.distributed.events import TranscriptEntry
    from repro.distributed.faults import FaultPlan
    from repro.distributed.messages import Message
    from repro.distributed.network import NetworkConfig
    from repro.distributed.node import Node


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

    def record(self, direction: str, station: str, head: bytes, payload: bytes = b"") -> None:
        """Append one accepted frame: ``head + payload`` (a whole frame by default)."""
        self._directions.append(direction)
        self._stations.append(station)
        self._heads.append(head)
        self._payloads.append(payload)

    def clear(self) -> None:
        """Forget every recorded frame."""
        self._directions.clear()
        self._stations.clear()
        self._heads.clear()
        self._payloads.clear()

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


class Transport(abc.ABC):
    """Reliable, exactly-once, frame-accounted message transport for one round.

    One instance carries one round's traffic: phases run sequentially
    (downlink broadcast, station matching, uplink gather), all byte/frame
    accounting accumulates on the instance, and the transcript records every
    frame event.  A transfer that exhausts its retransmission budget either
    raises :class:`~repro.distributed.events.RoundTimeoutError` or — when the
    backend allows partial phases — surfaces through
    :attr:`PhaseOutcome.failed_ids`.
    """

    # -- sending -----------------------------------------------------------------

    @abc.abstractmethod
    def broadcast(
        self, sends: Sequence[tuple["Message", "Node | None"]]
    ) -> PhaseOutcome:
        """Run one downlink phase: the center's messages to many stations."""

    @abc.abstractmethod
    def gather(self, sends: Sequence[tuple["Message", "Node | None"]]) -> PhaseOutcome:
        """Run one uplink phase: station reports into the center's ingress."""

    def send_downlink(self, message: "Message", receiver: "Node | None" = None) -> float:
        """Deliver one center→station message; return its phase duration."""
        return self.broadcast([(message, receiver)]).duration_s

    def send_uplink(self, message: "Message", receiver: "Node | None" = None) -> float:
        """Deliver one station→center message; return its phase duration."""
        return self.gather([(message, receiver)]).duration_s

    # -- configuration -----------------------------------------------------------

    @property
    @abc.abstractmethod
    def config(self) -> "NetworkConfig":
        """The link/reliability parameters in use."""

    @property
    @abc.abstractmethod
    def fault_plan(self) -> "FaultPlan":
        """The fault plan frames are exposed to."""

    @property
    @abc.abstractmethod
    def seed(self) -> int:
        """The network seed all fault decisions derive from."""

    # -- accounting --------------------------------------------------------------

    @property
    @abc.abstractmethod
    def downlink_bytes(self) -> int:
        """Bytes put on center→station links (retransmits and duplicates included)."""

    @property
    @abc.abstractmethod
    def uplink_bytes(self) -> int:
        """Bytes put on the station→center ingress (retransmits included)."""

    @property
    @abc.abstractmethod
    def message_count(self) -> int:
        """Logical messages offered to the transport."""

    @abc.abstractmethod
    def frame_stats(self) -> FrameStats:
        """Snapshot of the frame-level ledger."""

    @abc.abstractmethod
    def transmission_time_s(self) -> float:
        """Aggregate transmission time (virtual on the simulator, wall on TCP)."""

    @property
    @abc.abstractmethod
    def transcript(self) -> tuple["TranscriptEntry", ...]:
        """The event transcript recorded so far."""

    def transcript_bytes(self) -> bytes:
        """Canonical byte rendering of the transcript (the replay token)."""
        from repro.distributed.events import transcript_to_bytes

        return transcript_to_bytes(list(self.transcript))

    @abc.abstractmethod
    def delivered_payloads(self, direction: str) -> dict[str, tuple[bytes, ...]]:
        """Unique delivered frame bytes per station endpoint for ``direction``.

        The conformance battery compares these across backends: for a
        fault-free plan the exact wire bytes each station's report (uplink) or
        artifact copy (downlink) delivered must be identical on the simulator
        and over real sockets.  Messages outside the wire vocabulary (the
        simulator's in-memory fallback path) contribute no entry.
        """

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Release any resources the round's transport holds (idempotent)."""
