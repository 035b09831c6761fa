"""Deterministic event-driven network between the data center and base stations.

The model keeps the two properties the paper's communication argument depends
on — the wireless backhaul has limited bandwidth, and every station shares the
data center's ingress link when uploading (downlink broadcasts run on parallel
per-station links; uplink transfers serialize at the center) — but executes
them as a discrete-event simulation on a virtual clock instead of closed-form
accounting:

* every frame of a phase's :class:`~repro.distributed.transport.base.Frames`
  is encoded to its real wire bytes and transmitted over a link with
  queueing, latency and transfer time;
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
Both engines read the phase's columns, and receivers parse each head into
their columnar inboxes, so an intact frame builds no
:class:`~repro.distributed.messages.Message` at either end.  A frame whose
payload has no wire encoding fails its phase with
:class:`~repro.wire.errors.UnsupportedWireTypeError` before any frame of the
phase is sent.

Every frame event is recorded as a
:class:`~repro.distributed.events.TranscriptEntry`; the canonical transcript
bytes are the replay token the seed-replay tests compare across runs and
executors.  The ledger, the transcript and the failure rule are
:class:`~repro.distributed.transport.base.Transport`'s, shared with the TCP
backend; this module supplies the link model, the fault draws and the event
loop.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.distributed.events import EventLoop, TranscriptEntry
from repro.distributed.faults import NO_FRAME_FAULTS, FaultPlan
from repro.distributed.transport.base import (
    Frames,
    FrameStats,
    PhaseOutcome,
    Sends,
    Transfer,
    Transport,
)
from repro.utils.validation import require_non_negative, require_positive

__all__ = [
    "Frames",
    "FrameStats",
    "NetworkConfig",
    "PhaseOutcome",
    "SimulatedNetwork",
]

#: All uplink transfers serialize on this shared link (the center's ingress).
_UPLINK_INGRESS = "uplink:center-ingress"

_new_row = tuple.__new__


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
        allow_partial: bool = False,
    ) -> None:
        super().__init__(config or NetworkConfig(), fault_plan, seed, allow_partial)
        self._fault_free = self._plan.is_fault_free
        self._loop = EventLoop()
        self._link_free: dict[str, float] = {}

    # -- sending -----------------------------------------------------------------

    def broadcast(self, sends: Sends) -> PhaseOutcome:
        """Run one downlink phase: the center's frames to many stations."""
        return self._run_phase(Frames.of(sends), "downlink")

    def gather(self, sends: Sends) -> PhaseOutcome:
        """Run one uplink phase: station reports into the center's ingress."""
        return self._run_phase(Frames.of(sends), "uplink")

    # -- the phase engine ---------------------------------------------------------

    def _run_phase(self, frames: Frames, direction: str) -> PhaseOutcome:
        opened = self._open_phase(frames, direction)
        if self._fault_free and self._config.retransmit_timeout_s is None:
            return self._run_in_one_pass(frames, direction, *opened)
        self._loop.reset(0.0)
        self._link_free.clear()
        transfers = Transfer.per_frame(frames, direction, *opened)
        for transfer in transfers:
            self._schedule_attempt(0.0, transfer, False)
        self._loop.run()
        return self._settle(transfers, direction)

    def _run_in_one_pass(
        self,
        frames: Frames,
        direction: str,
        first_id: int,
        heads: list[bytes],
        payloads: list[bytes],
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
        senders, recipients, kinds, receivers = (
            frames.senders, frames.recipients, frames.kinds, frames.receivers
        )
        link_free: dict[str, float] = {}
        ingress_free = 0.0
        arrivals: list[float] = []
        sent: list[TranscriptEntry] = []
        sequence = len(transcript)
        kind = kind_value = None
        for index, size in enumerate(sizes):
            recipient = recipients[index]
            if downlink:
                start = link_free.get(recipient, 0.0)
                arrival = link_free[recipient] = start + (latency + size / bandwidth)
            else:
                start = ingress_free
                arrival = ingress_free = start + (latency + size / bandwidth)
            arrivals.append(arrival)
            if kinds[index] is not kind:
                kind = kinds[index]
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
                        senders[index],
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

        record = self._delivered.record
        append = transcript.append
        stations = recipients if downlink else senders
        for index in sorted(range(len(arrivals)), key=arrivals.__getitem__):
            _, _, _, frame_id, _, sender, recipient, kind_value, size = sent[index]
            receiver = receivers[index]
            head = heads[index]
            payload = payloads[index]
            if receiver is not None:
                receiver.receive_frame(head, payload)
            self._frames_delivered += 1
            self._payload_bytes_delivered += size
            record(direction, stations[index], head, payload)
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

        return self._close_phase(direction, max(arrivals, default=0.0), tuple(stations), ())

    def _schedule_attempt(self, time_s: float, transfer: Transfer, retransmit: bool) -> None:
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
            self._mark_failed(time_s, transfer, transfer.attempts)
            return
        transfer.attempts += 1
        attempt = transfer.attempts
        if retransmit:
            self._retransmit_count += 1
            self._record(time_s, "retransmit", transfer, attempt)
        occupancy = config.latency_s + transfer.size / config.bandwidth_bytes_per_s
        if self._fault_free:
            injector = None
            faults = NO_FRAME_FAULTS
        else:
            injector = self._injector
            faults = injector.frame_faults(transfer.frame_id, attempt)
            multiplier = injector.straggler_multiplier(transfer.station)
            if multiplier != 1.0:
                occupancy *= multiplier
        # A phase runs one way: a downlink frame has its station's own link,
        # and every uplink frame shares the ingress.
        link = transfer.station if transfer.direction == "downlink" else _UPLINK_INGRESS
        start = max(time_s, self._link_free.get(link, 0.0))
        self._link_free[link] = start + occupancy
        self._charge(transfer.direction, transfer.size)
        self._record(start, "send", transfer, attempt)

        lost_to_blackout = False
        if injector is not None:
            blackout = injector.blackout_window(transfer.station)
            lost_to_blackout = blackout is not None and blackout[0] <= start < blackout[1]
        arrival = None
        if lost_to_blackout or faults.drop:
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
                self._charge(transfer.direction, transfer.size)
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

    def _on_arrival(self, time_s: float, transfer: Transfer, data: bytes) -> None:
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
            # copy needs its checksum verified.  A copy has one byte flipped,
            # which the checksum always catches, so a frame that passes is
            # the sender's own and is handed over as its head and block.
            self._count_corrupt(
                time_s, transfer, transfer.attempts, self._caught_by_codec(data)
            )
            return
        self._hand_over(transfer)
        self._mark_delivered(time_s, transfer, transfer.attempts)
