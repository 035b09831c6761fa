"""Unit tests for the protocol data types."""

import pytest

from repro.core.protocol import MatchReport, RankedResults, RankedUser


class TestMatchReport:
    def test_immutable(self):
        report = MatchReport("u", "s")
        with pytest.raises(AttributeError):
            report.user_id = "other"


class TestRankedResults:
    def _results(self):
        return RankedResults(
            (
                RankedUser("a", 1.0),
                RankedUser("b", 0.7),
                RankedUser("c", 0.5),
            )
        )

    def test_user_ids_in_order(self):
        assert self._results().user_ids() == ["a", "b", "c"]

    def test_len_and_iter(self):
        results = self._results()
        assert len(results) == 3
        assert [entry.user_id for entry in results] == ["a", "b", "c"]

    def test_top(self):
        assert self._results().top(2).user_ids() == ["a", "b"]

    def test_top_beyond_length(self):
        assert self._results().top(10).user_ids() == ["a", "b", "c"]

    def test_top_negative_rejected(self):
        with pytest.raises(ValueError):
            self._results().top(-1)
