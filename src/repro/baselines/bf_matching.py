"""Plain-Bloom-filter matching (the "BF" curve of Figure 4).

Identical pipeline to DI-matching — pattern representation, combination enumeration,
sampling and hashing — except that the distributed filter is a plain Bloom filter
with no weights.  Base stations report any user whose sampled values are all present;
the data center can neither distinguish global- from local-matches nor apply the
weight-sum rule, so cross-pattern confusions and over-matching users survive into the
result, which is what degrades precision as the number of patterns grows.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.bloom.standard import BloomFilter
from repro.core.config import DIMatchingConfig
from repro.core.encoder import PatternEncoder
from repro.core.exceptions import MatchingError
from repro.core.matcher import StationMatcherCache, match_plain
from repro.core.protocol import MatchingProtocol, RankedResults, RankedUser
from repro.core.reports import ReportColumns
from repro.timeseries.pattern import PatternSet
from repro.timeseries.query import QueryPattern


class BloomFilterProtocol(MatchingProtocol):
    """DI-matching with an unweighted Bloom filter instead of the WBF."""

    def __init__(self, config: DIMatchingConfig | None = None) -> None:
        self._config = config or DIMatchingConfig()
        self._encoder = PatternEncoder(self._config)
        self._matchers = StationMatcherCache(self._config)

    @property
    def name(self) -> str:
        """Protocol name used in evaluation reports."""
        return "bf"

    @property
    def config(self) -> DIMatchingConfig:
        """The shared center/station configuration."""
        return self._config

    # -- MatchingProtocol interface ---------------------------------------------

    def encode(self, queries: Sequence[QueryPattern]) -> BloomFilter:
        """Hash the same combined, sampled patterns into a plain Bloom filter."""
        return self._encoder.encode_batch_plain(queries)

    def station_match(
        self, station_id: str, patterns: PatternSet, artifact: object | None
    ) -> ReportColumns:
        """Report every user whose sampled values are all present in the filter."""
        return self.match_stations([(station_id, patterns)], artifact)[0]

    def match_stations(
        self, stations: Sequence[tuple[str, PatternSet]], artifact: object | None
    ) -> list[ReportColumns]:
        """The membership-only Algorithm 2 at every station, in one pass over their probes."""
        if not stations:
            return []
        if not isinstance(artifact, BloomFilter):
            raise MatchingError(
                f"station {stations[0][0]!r} received {type(artifact).__name__}, "
                "expected a BloomFilter"
            )
        matcher_for = self._matchers.matcher_for
        return match_plain(
            [matcher_for(station_id, patterns) for station_id, patterns in stations],
            artifact,
        )

    def aggregate(self, reports: Sequence[object], k: int | None) -> RankedResults:
        """Rank users by how many stations reported them (no weights available)."""
        columns = ReportColumns.from_reports(reports)
        if columns is None:
            raise MatchingError("BF aggregation received non-MatchReport entries")
        ranked = [
            RankedUser(user_id=columns.table[user], score=float(count))
            for user, count in Counter(columns.users).items()
        ]
        ranked.sort(key=lambda entry: (-entry.score, entry.user_id))
        results = RankedResults(tuple(ranked))
        return results if k is None else results.top(k)
