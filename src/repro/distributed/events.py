"""Virtual-clock discrete-event machinery behind the simulated network.

The :class:`EventLoop` is a plain monotonic heap of ``(time, sequence,
callback, args)`` entries: time is *virtual* (seconds of simulated
transmission, never wall clock), and the sequence number makes ordering of
simultaneous events total and deterministic.  Carrying the callback's
arguments in the entry spares the transport a closure per scheduled frame.
Everything the loop does is recorded by the transport as
:class:`TranscriptEntry` rows; the canonical byte rendering of a transcript
(:func:`transcript_to_bytes`) is what the seed-replay harness compares across
runs and interpreters — two runs are "the same" exactly when their
transcripts are byte-identical.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, NamedTuple

from repro.core.exceptions import ReproError


class TransportError(ReproError):
    """Base class for errors raised by the simulated transport."""


class RoundTimeoutError(TransportError):
    """A reliable transfer exhausted its retransmission budget.

    Raised by the transport when a phase cannot converge (e.g. a station is
    blacked out past the retry horizon) and partial rounds are not allowed.
    """

    def __init__(
        self,
        message: str,
        failed_transfers: tuple[str, ...] = (),
        delivered_ids: tuple[str, ...] = (),
    ) -> None:
        super().__init__(message)
        #: ``"sender->recipient"`` labels of the transfers that never completed.
        self.failed_transfers = failed_transfers
        #: Station endpoints whose transfer *did* complete before the phase
        #: failed — their receivers already hold the decoded messages, so
        #: callers with retry semantics must not re-send them.
        self.delivered_ids = delivered_ids


class EventLoop:
    """A deterministic single-threaded discrete-event loop on a virtual clock."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._sequence = 0
        self._now = 0.0

    @property
    def now(self) -> float:
        """The current virtual time in seconds."""
        return self._now

    def schedule(self, time_s: float, callback: Callable[..., None], *args: object) -> None:
        """Schedule ``callback(fire_time, *args)`` at virtual time ``time_s``.

        Events scheduled for the past fire at the current clock instead (the
        loop never travels backwards); ties break by scheduling order.
        """
        now = self._now
        heappush(self._heap, (time_s if time_s >= now else now, self._sequence, callback, args))
        self._sequence += 1

    def run(self) -> float:
        """Run until the event heap drains; return the final virtual time."""
        heap = self._heap
        while heap:
            time_s, _sequence, callback, args = heappop(heap)
            self._now = time_s
            callback(time_s, *args)
        return self._now

    def reset(self, time_s: float = 0.0) -> None:
        """Drop pending events and rewind the clock (between phases/rounds)."""
        self._heap.clear()
        self._now = time_s


#: One transcript row's rendering, applied to the row tuple itself: ``%r`` of
#: the time is its exact ``repr``, ``%s`` of every other field its ``str``.
_ROW_FORMAT = "%s t=%r %s frame=%s attempt=%s %s->%s kind=%s bytes=%s"


class TranscriptEntry(NamedTuple):
    """One row of the deterministic event transcript.

    The fields are everything replay needs to compare two executions: virtual
    time, a total order, the event type, the frame's identity and routing, its
    size and attempt number.  Wall-clock timings never appear here — they are
    measurements, not behaviour.  A named tuple rather than a dataclass
    because the simulator builds one per frame event: construction is a
    single tuple allocation, and entries stay immutable.
    """

    sequence: int
    time_s: float
    event: str
    frame_id: int
    attempt: int
    sender: str
    recipient: str
    kind: str
    size_bytes: int

    def render(self) -> str:
        """The canonical single-line rendering used for byte-level comparison."""
        return _ROW_FORMAT % self


#: Event types a transcript may contain, in no particular order.
TRANSCRIPT_EVENTS = (
    "phase",
    "send",
    "dup-send",
    "drop",
    "blackout",
    "deliver",
    "duplicate",
    "corrupt",
    "retransmit",
    "timeout",
)


def transcript_to_bytes(entries: "tuple[TranscriptEntry, ...] | list[TranscriptEntry]") -> bytes:
    """Canonical byte rendering of a transcript.

    ``repr`` of a float is exact and stable across platforms and Python
    builds, so two transcripts are byte-identical iff every event happened at
    the same virtual time, in the same order, with the same routing and sizes.
    """
    return "\n".join([_ROW_FORMAT % entry for entry in entries]).encode("utf-8")
