"""Unit tests for the local-only baseline (Approach 2)."""

import pytest

from repro.baselines.local_match import LocalOnlyProtocol
from repro.core.exceptions import MatchingError
from repro.core.reports import concat_reports
from repro.timeseries.pattern import LocalPattern, PatternSet
from repro.timeseries.query import QueryPattern


def _query():
    return QueryPattern(
        "q0",
        [
            LocalPattern("alice", [1, 1, 1], "bs-1"),
            LocalPattern("alice", [2, 3, 4], "bs-2"),
        ],
    )


class TestLocalOnlyProtocol:
    def test_name_and_epsilon(self):
        protocol = LocalOnlyProtocol(epsilon=1)
        assert protocol.name == "local"
        assert protocol.epsilon == 1

    def test_encode_distributes_raw_queries(self):
        artifact = LocalOnlyProtocol().encode([_query()])
        assert isinstance(artifact, tuple)
        assert artifact[0].query_id == "q0"

    def test_station_reports_local_matches_of_global_pattern(self):
        protocol = LocalOnlyProtocol(epsilon=0)
        artifact = protocol.encode([_query()])
        patterns = PatternSet(
            [
                LocalPattern("whole-at-one-station", [3, 4, 5], "bs-9"),
                LocalPattern("fragment-only", [1, 1, 1], "bs-9"),
            ]
        )
        reports = protocol.station_match("bs-9", patterns, artifact)
        assert [r.user_id for r in reports] == ["whole-at-one-station"]

    def test_misses_split_users(self):
        # The lossy case the paper describes: the user's aggregated pattern matches
        # but no individual fragment does, so the local-only approach misses them.
        protocol = LocalOnlyProtocol(epsilon=0)
        artifact = protocol.encode([_query()])
        fragments = PatternSet(
            [
                LocalPattern("split-user", [1, 1, 1], "bs-9"),
                LocalPattern("split-user", [2, 3, 4], "bs-9"),
            ]
        )
        reports = protocol.station_match("bs-9", fragments, artifact)
        assert reports == []

    def test_aggregate_counts_stations(self):
        protocol = LocalOnlyProtocol()
        artifact = protocol.encode([_query()])
        patterns = PatternSet([LocalPattern("match", [3, 4, 5], "bs-1")])
        reports = concat_reports(
            protocol.station_match(station_id, patterns, artifact)
            for station_id in ("bs-1", "bs-2")
        )
        results = protocol.aggregate(reports, k=None)
        assert results.user_ids() == ["match"]
        assert results.users[0].score == 2.0

    def test_aggregate_top_k(self):
        protocol = LocalOnlyProtocol()
        from repro.core.protocol import MatchReport

        reports = [MatchReport(f"u{i}", "a") for i in range(5)]
        assert len(protocol.aggregate(reports, k=2)) == 2

    def test_station_match_rejects_wrong_artifact(self):
        with pytest.raises(MatchingError):
            LocalOnlyProtocol().station_match("bs", PatternSet(), artifact="raw")

    def test_aggregate_rejects_foreign_reports(self):
        with pytest.raises(MatchingError):
            LocalOnlyProtocol().aggregate([42], k=None)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            LocalOnlyProtocol(epsilon=-0.5)
