"""Common interface shared by DI-matching and the baseline protocols.

Every matching method is expressed as three phases matching the paper's Figure 2:

1. ``encode`` — at the data center, turn the query batch into an artifact to
   distribute (a WBF, a plain BF, or nothing for the naive method);
2. ``station_match`` — at each base station, produce the reports to send back
   (matched ``(id, weight)`` pairs, matched ids, or the raw local patterns);
   ``match_stations`` runs it for many stations against one artifact;
3. ``aggregate`` — at the data center, combine all reports into a ranked top-K.

The :class:`repro.cluster.Cluster` facade drives any protocol through these
phases while accounting for communication, storage and time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Protocol, Sequence

from repro.timeseries.pattern import PatternSet
from repro.timeseries.query import QueryPattern


@dataclass(frozen=True)
class MatchReport:
    """A base station's report for one matched user.

    ``weight`` is the matched pattern weight for DI-matching, or ``None`` for
    weight-less protocols (the plain-BF baseline).  ``query_id`` qualifies the weight
    by the query pattern set it was read from; it is empty for single-query use and
    for weight-less reports.
    """

    user_id: str
    station_id: str
    weight: Fraction | None = None
    query_id: str = ""


@dataclass(frozen=True)
class RankedUser:
    """One entry of a ranked result list."""

    user_id: str
    score: float


@dataclass(frozen=True)
class RankedResults:
    """An ordered (descending score) list of retrieved users."""

    users: tuple[RankedUser, ...]

    def __len__(self) -> int:
        return len(self.users)

    def __iter__(self):
        return iter(self.users)

    def user_ids(self) -> list[str]:
        """Retrieved user ids in rank order."""
        return [entry.user_id for entry in self.users]

    def top(self, k: int) -> "RankedResults":
        """The first ``k`` entries."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        return RankedResults(self.users[:k])


class MatchingProtocol(ABC):
    """A distributed pattern-matching method expressed as encode / match / aggregate."""

    @property
    @abstractmethod
    def name(self) -> str:
        """Short method name used in reports ("wbf", "bf", "naive", ...)."""

    @abstractmethod
    def encode(self, queries: Sequence[QueryPattern]) -> object | None:
        """Build the artifact the data center distributes to every base station."""

    @abstractmethod
    def station_match(
        self, station_id: str, patterns: PatternSet, artifact: object | None
    ) -> list[object]:
        """Run the per-station phase and return the reports to send to the center."""

    def match_stations(
        self, stations: Sequence[tuple[str, PatternSet]], artifact: object | None
    ) -> list[list[object]]:
        """Run the per-station phase for every ``(station_id, patterns)`` pair.

        Returns one report list per pair, in order, each equal to what
        :meth:`station_match` returns for that station.  This default loops;
        protocols whose stations can share one pass over the artifact (the
        filter-based ones) override it.
        """
        return [
            self.station_match(station_id, patterns, artifact)
            for station_id, patterns in stations
        ]

    @abstractmethod
    def aggregate(self, reports: Sequence[object], k: int | None) -> RankedResults:
        """Combine all stations' reports into the final ranked top-K result."""

    def open_ranking(self) -> "StationRanking":
        """An empty center-side ranking kept per station.

        ``results(k)`` equals :meth:`aggregate` over every station's current
        reports.  This default re-aggregates them in full on each read;
        protocols with an incremental Algorithm 3 override it.
        """
        return ReportRanking(self)


class StationRanking(Protocol):
    """A ranking over per-station reports, as :meth:`MatchingProtocol.open_ranking` opens it."""

    def replace(self, station_id: str, reports: Sequence[object]) -> None:
        """Make ``reports`` the whole current contribution of ``station_id``."""

    def remove(self, station_id: str) -> None:
        """Drop every report ``station_id`` contributed (a no-op if none)."""

    def results(self, k: int | None = None) -> RankedResults:
        """The ranked top-``k`` over every station's current reports."""


class ReportRanking:
    """Per-station report lists, re-aggregated in full by ``results``.

    Reports are concatenated in the order stations first entered (a replaced
    station keeps its place), which is the order :meth:`aggregate` sees.
    """

    def __init__(self, protocol: MatchingProtocol) -> None:
        self._protocol = protocol
        self._reports: dict[str, Sequence[object]] = {}

    def replace(self, station_id: str, reports: Sequence[object]) -> None:
        from repro.core.reports import own_reports

        self._reports[station_id] = own_reports(reports)

    def remove(self, station_id: str) -> None:
        self._reports.pop(station_id, None)

    def results(self, k: int | None = None) -> RankedResults:
        from repro.core.reports import concat_reports

        return self._protocol.aggregate(concat_reports(self._reports.values()), k)
