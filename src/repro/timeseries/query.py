"""Query pattern: the pattern set a service provider submits to the data center.

A query consists of the local patterns of one "preferred customer" (one fragment per
base station the customer visited); their per-interval sum is the query's global
pattern.  Matching is defined against the global pattern (Problem Statement,
Section III-B), but the local fragments are needed by the encoder to enumerate
combinations (Eq. 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.timeseries.pattern import GlobalPattern, LocalPattern
from repro.utils.validation import require_non_empty


@dataclass(frozen=True)
class QueryPattern:
    """A query: an id plus the local fragments whose sum is the target global pattern."""

    query_id: str
    local_patterns: tuple[LocalPattern, ...]
    _global: GlobalPattern = field(init=False, repr=False, compare=False)

    def __init__(self, query_id: str, local_patterns: list[LocalPattern] | tuple[LocalPattern, ...]) -> None:
        require_non_empty(local_patterns, "local_patterns")
        object.__setattr__(self, "query_id", str(query_id))
        object.__setattr__(self, "local_patterns", tuple(local_patterns))
        object.__setattr__(self, "_global", GlobalPattern.from_locals(list(local_patterns)))

    @property
    def global_pattern(self) -> GlobalPattern:
        """The per-interval sum of the query's local fragments."""
        return self._global

    @property
    def length(self) -> int:
        """Number of time intervals covered."""
        return len(self._global)

    @property
    def station_count(self) -> int:
        """Number of local fragments (the paper's ``l`` / ``e``)."""
        return len(self.local_patterns)

    def __repr__(self) -> str:
        return (
            f"QueryPattern(query_id={self.query_id!r}, stations={self.station_count}, "
            f"length={self.length})"
        )
