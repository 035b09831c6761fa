"""The DI-matching protocol: the paper's end-to-end framework.

Ties Algorithm 1 (encoding), Algorithm 2 (station matching) and Algorithm 3
(aggregation) together behind the :class:`~repro.core.protocol.MatchingProtocol`
interface so it can be driven by the distributed simulator and compared against the
baselines under identical conditions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from repro.core.aggregator import IncrementalRanking, SimilarityRanker
from repro.core.config import DIMatchingConfig
from repro.core.encoder import EncodedQueryBatch, PatternEncoder
from repro.core.exceptions import MatchingError
from repro.core.matcher import StationMatcherCache, match_weighted
from repro.core.protocol import MatchingProtocol, RankedResults
from repro.core.reports import ReportColumns, concat_reports
from repro.timeseries.pattern import PatternSet
from repro.timeseries.query import QueryPattern

if TYPE_CHECKING:  # pragma: no cover - import for type checking only
    from repro.datagen.workload import DistributedDataset


class DIMatchingProtocol(MatchingProtocol):
    """Weighted-Bloom-Filter based distributed incomplete pattern matching."""

    def __init__(
        self,
        config: DIMatchingConfig | None = None,
        max_weight_sum: Fraction = Fraction(1),
    ) -> None:
        self._config = config or DIMatchingConfig()
        self._encoder = PatternEncoder(self._config)
        self._ranker = SimilarityRanker(max_weight_sum)
        self._matchers = StationMatcherCache(self._config)

    @property
    def name(self) -> str:
        """Protocol name used in evaluation reports."""
        return "wbf"

    @property
    def config(self) -> DIMatchingConfig:
        """The shared center/station configuration."""
        return self._config

    # -- MatchingProtocol interface ---------------------------------------------

    def encode(self, queries: Sequence[QueryPattern]) -> EncodedQueryBatch:
        """Algorithm 1 at the data center."""
        return self._encoder.encode_batch(queries)

    def station_match(
        self, station_id: str, patterns: PatternSet, artifact: object | None
    ) -> ReportColumns:
        """Algorithm 2 at one base station: the one-station case of :meth:`match_stations`."""
        return self.match_stations([(station_id, patterns)], artifact)[0]

    def match_stations(
        self, stations: Sequence[tuple[str, PatternSet]], artifact: object | None
    ) -> list[ReportColumns]:
        """Algorithm 2 at every station, in one pass over their probes."""
        if not stations:
            return []
        if not isinstance(artifact, EncodedQueryBatch):
            raise MatchingError(
                f"station {stations[0][0]!r} received {type(artifact).__name__}, "
                "expected an EncodedQueryBatch"
            )
        matcher_for = self._matchers.matcher_for
        return match_weighted(
            [matcher_for(station_id, patterns) for station_id, patterns in stations],
            artifact,
        )

    def aggregate(self, reports: Sequence[object], k: int | None) -> RankedResults:
        """Algorithm 3 at the data center."""
        columns = ReportColumns.from_reports(reports)
        if columns is None:
            raise MatchingError("DI-matching aggregation received non-MatchReport entries")
        return self._ranker.aggregate(columns, k)

    def open_ranking(self) -> IncrementalRanking:
        """Algorithm 3 maintained incrementally under per-station updates."""
        return self._ranker.open_ranking()


def run_dimatching(
    dataset: "DistributedDataset",
    queries: Sequence[QueryPattern],
    config: DIMatchingConfig | None = None,
    k: int | None = None,
) -> RankedResults:
    """Convenience entry point: run DI-matching over a dataset without the simulator.

    Matches every pattern-bearing station in one in-process pass; drive a
    round through the :class:`repro.cluster.Cluster` facade when
    communication, storage and timing costs are needed.
    """
    protocol = DIMatchingProtocol(config)
    artifact = protocol.encode(queries)
    stations = [
        (station_id, patterns)
        for station_id in dataset.station_ids
        if len(patterns := dataset.local_patterns_at(station_id))
    ]
    return protocol.aggregate(concat_reports(protocol.match_stations(stations, artifact)), k)
