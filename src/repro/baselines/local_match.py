"""Local-only matching (Approach 2, Section III-C).

The data center sends the raw query patterns to every station; each station applies
Eq. (2) between its local fragments and the query's *global* pattern and reports the
users that matched locally.  The approach is communication-light but lossy: a user
whose data are split across stations never matches locally even when the aggregated
global pattern matches, and a station-level match does not imply a global match (the
paper's {3,4,5}×3 example).  Included as the second naive strawman for completeness
and for the ablation benchmarks.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.core.exceptions import MatchingError
from repro.core.protocol import MatchingProtocol, RankedResults, RankedUser
from repro.core.reports import ReportColumns
from repro.timeseries.pattern import PatternSet
from repro.timeseries.query import QueryPattern
from repro.timeseries.similarity import pattern_epsilon_similar
from repro.utils.validation import require_non_negative


class LocalOnlyProtocol(MatchingProtocol):
    """Each station matches locally; the center unions the reported ids."""

    def __init__(self, epsilon: float = 0) -> None:
        require_non_negative(epsilon, "epsilon")
        self._epsilon = epsilon

    @property
    def name(self) -> str:
        """Protocol name used in evaluation reports."""
        return "local"

    @property
    def epsilon(self) -> float:
        """The ε of Eq. (2) applied at each station."""
        return self._epsilon

    # -- MatchingProtocol interface ---------------------------------------------

    def encode(self, queries: Sequence[QueryPattern]) -> tuple[QueryPattern, ...]:
        """Distribute the raw query patterns themselves."""
        return tuple(queries)

    def station_match(
        self, station_id: str, patterns: PatternSet, artifact: object | None
    ) -> ReportColumns:
        """Report users whose local fragment matches some query's global pattern."""
        if not isinstance(artifact, tuple) or not all(
            isinstance(query, QueryPattern) for query in artifact
        ):
            raise MatchingError(
                f"station {station_id!r} expected a tuple of QueryPattern, "
                f"got {type(artifact).__name__}"
            )
        return ReportColumns.weightless(
            station_id,
            [
                pattern.user_id
                for pattern in patterns
                if any(
                    pattern_epsilon_similar(pattern, query.global_pattern, self._epsilon)
                    for query in artifact
                )
            ],
        )

    def aggregate(self, reports: Sequence[object], k: int | None) -> RankedResults:
        """Union the station-level matches, ranked by report count."""
        columns = ReportColumns.from_reports(reports)
        if columns is None:
            raise MatchingError("local-only aggregation received non-MatchReport entries")
        ranked = [
            RankedUser(user_id=columns.table[user], score=float(count))
            for user, count in Counter(columns.users).items()
        ]
        ranked.sort(key=lambda entry: (-entry.score, entry.user_id))
        results = RankedResults(tuple(ranked))
        return results if k is None else results.top(k)
