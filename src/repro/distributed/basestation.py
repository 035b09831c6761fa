"""Base-station node: stores a station's local patterns and the artifacts it received."""

from __future__ import annotations

from repro.distributed.node import Node
from repro.timeseries.pattern import PatternSet


class BaseStationNode(Node):
    """A base station holding the local patterns of the users it served."""

    def __init__(self, station_id: str, patterns: PatternSet) -> None:
        super().__init__(station_id)
        if not isinstance(patterns, PatternSet):
            raise TypeError(f"patterns must be a PatternSet, got {type(patterns).__name__}")
        self._patterns = patterns

    @property
    def patterns(self) -> PatternSet:
        """The locally stored patterns."""
        return self._patterns

    @property
    def stored_pattern_count(self) -> int:
        """Number of local patterns stored at this station."""
        return len(self._patterns)

    def latest_artifact(self) -> object | None:
        """The payload of the most recent dissemination/control message.

        This is what the station actually decoded off the wire — the artifact
        the matching phase should run against.  Raises :class:`LookupError`
        when no dissemination reached this station (e.g. its downlink timed
        out in a partial round).
        """
        from repro.distributed.messages import MessageKind

        for message in reversed(self._inbox):
            if message.kind in (MessageKind.FILTER_DISSEMINATION, MessageKind.CONTROL):
                return message.payload
        raise LookupError(f"station {self.node_id!r} never received a dissemination")
