"""Data-center node: the inbox that collects the stations' match reports."""

from __future__ import annotations

from typing import Sequence

from repro.core.reports import ReportColumns, concat_reports
from repro.distributed.node import Node

#: The paper denotes the data center as node ``N0``.
DATA_CENTER_NODE_ID = "data-center"


class DataCenterNode(Node):
    """The central node, whose inbox gathers every station's match reports."""

    def __init__(self, node_id: str = DATA_CENTER_NODE_ID) -> None:
        super().__init__(node_id)

    def reports_by_sender(self) -> dict[str, Sequence[object]]:
        """Decoded match-report payloads in the inbox, grouped by station.

        These are the reports that actually crossed the uplink — decoded from
        wire bytes by the transport, deduplicated at the frame layer.  The
        simulator aggregates them in canonical station order so delivery
        reordering can never change the ranking.  A station that delivered
        one report frame maps to that frame's decoded value itself — report
        columns, or a list — not a copy: callers read the values and never
        change them.  A second frame from one sender joins into a new
        concatenation.

        Every protocol's ``MATCH_REPORT`` payload is a report list (possibly
        empty) or, for the naive method, a list of raw patterns;
        anything else in the inbox is a protocol violation and raises
        :class:`~repro.wire.errors.WireFormatError` — a malformed report must
        surface like transport corruption does, never silently shrink the
        aggregation input.
        """
        from repro.distributed.messages import MessageKind
        from repro.wire.errors import WireFormatError

        grouped: dict[str, Sequence[object]] = {}
        for sender, kind, payload in zip(self._senders, self._kinds, self._payloads):
            if kind is not MessageKind.MATCH_REPORT:
                continue
            if payload.__class__ is not ReportColumns and not isinstance(payload, list):
                raise WireFormatError(
                    f"MATCH_REPORT from {sender!r} carries a "
                    f"{type(payload).__name__} payload; every protocol encodes "
                    "match reports as a list"
                )
            earlier = grouped.get(sender)
            # A second frame from one sender joins into a new sequence, so no
            # decoded payload is ever extended in place.
            grouped[sender] = payload if earlier is None else concat_reports((earlier, payload))
        return grouped
