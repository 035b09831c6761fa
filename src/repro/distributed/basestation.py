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
