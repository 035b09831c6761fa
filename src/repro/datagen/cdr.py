"""Call Detail Records (CDR) and Cell Detail List (CDL) entries.

The paper's raw inputs are CDRs (mobile phone id, call type, opposite id, start time,
duration, station) and CDL entries (station id, location).  These record types and
the aggregation from raw records to per-interval :class:`CommunicationAttributes`
(Definition 1) are the lowest layer of the data substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.timeseries.attributes import CommunicationAttributes
from repro.utils.validation import require_non_negative, require_positive


class CallType(str, Enum):
    """Direction of a call from the perspective of the recorded phone."""

    OUTGOING = "outgoing"
    INCOMING = "incoming"


@dataclass(frozen=True)
class CallDetailRecord:
    """One call event as recorded by the base station serving the caller."""

    caller_id: str
    callee_id: str
    station_id: str
    start_time_s: int
    duration_s: int
    call_type: CallType = CallType.OUTGOING

    def __post_init__(self) -> None:
        require_non_negative(self.start_time_s, "start_time_s")
        require_non_negative(self.duration_s, "duration_s")


@dataclass(frozen=True)
class CellDetailListEntry:
    """One CDL row: a base station and its location."""

    station_id: str
    x_km: float
    y_km: float


def aggregate_records_to_attributes(
    records: list[CallDetailRecord],
    user_id: str,
    interval_seconds: int,
    interval_count: int,
) -> list[CommunicationAttributes]:
    """Aggregate a user's CDRs into per-interval attributes (Definition 1 inputs).

    Only records where ``user_id`` is the caller are counted (the station serving the
    caller records the event, matching the paper's per-station bookkeeping).  Calls
    starting beyond the covered window are ignored.
    """
    require_positive(interval_seconds, "interval_seconds")
    require_positive(interval_count, "interval_count")
    call_counts = [0] * interval_count
    durations = [0] * interval_count
    partners: list[set[str]] = [set() for _ in range(interval_count)]
    for record in records:
        if record.caller_id != user_id:
            continue
        interval = record.start_time_s // interval_seconds
        if interval >= interval_count:
            continue
        call_counts[interval] += 1
        durations[interval] += record.duration_s
        partners[interval].add(record.callee_id)
    return [
        CommunicationAttributes(
            call_count=call_counts[i],
            call_duration=durations[i],
            partner_count=len(partners[i]),
        )
        for i in range(interval_count)
    ]
