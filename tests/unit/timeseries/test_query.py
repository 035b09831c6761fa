"""Unit tests for QueryPattern."""

import pytest

from repro.timeseries.pattern import LocalPattern
from repro.timeseries.query import QueryPattern


class TestQueryPattern:
    def _locals(self):
        return [
            LocalPattern("alice", [1, 0, 2], "bs-1"),
            LocalPattern("alice", [0, 3, 0], "bs-2"),
        ]

    def test_global_is_sum_of_locals(self):
        query = QueryPattern("q1", self._locals())
        assert query.global_pattern.values == (1, 3, 2)

    def test_station_count(self):
        assert QueryPattern("q1", self._locals()).station_count == 2

    def test_length(self):
        assert QueryPattern("q1", self._locals()).length == 3

    def test_rejects_empty_locals(self):
        with pytest.raises(ValueError):
            QueryPattern("q1", [])

    def test_rejects_mixed_users(self):
        locals_ = [
            LocalPattern("alice", [1], "bs-1"),
            LocalPattern("bob", [1], "bs-2"),
        ]
        with pytest.raises(ValueError):
            QueryPattern("q1", locals_)

    def test_repr(self):
        assert "q1" in repr(QueryPattern("q1", self._locals()))

    def test_single_fragment_query(self):
        query = QueryPattern("q2", [LocalPattern("alice", [2, 2], "bs-1")])
        assert query.global_pattern.values == (2, 2)
        assert query.station_count == 1
