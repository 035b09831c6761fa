"""Unit tests for the similarity ranker (Algorithm 3)."""

from fractions import Fraction

import pytest

from repro.core.aggregator import SimilarityRanker
from repro.core.exceptions import MatchingError
from repro.core.protocol import MatchReport


def _report(user, station, weight, query="q0"):
    return MatchReport(user_id=user, station_id=station, weight=weight, query_id=query)


class TestWeightOptions:
    def test_groups_by_user_query_and_station(self):
        ranker = SimilarityRanker()
        reports = [
            _report("u1", "a", Fraction(1, 2)),
            _report("u1", "b", Fraction(1, 2)),
            _report("u2", "a", Fraction(1)),
        ]
        options = ranker.weight_options(reports)
        assert set(options) == {("u1", "q0"), ("u2", "q0")}
        assert options[("u1", "q0")]["a"] == {Fraction(1, 2)}

    def test_rejects_weightless_reports(self):
        ranker = SimilarityRanker()
        with pytest.raises(MatchingError):
            ranker.weight_options([MatchReport("u1", "a", weight=None)])


class TestBestWeightSum:
    def test_single_option_per_station(self):
        ranker = SimilarityRanker()
        best = ranker.best_weight_sum({"a": {Fraction(1, 3)}, "b": {Fraction(2, 3)}})
        assert best == Fraction(1)

    def test_over_matching_returns_none(self):
        ranker = SimilarityRanker()
        assert ranker.best_weight_sum({"a": {Fraction(1)}, "b": {Fraction(1)}}) is None

    def test_chooses_assignment_that_reaches_one(self):
        # Station "a" is ambiguous between 1/3 and 2/3; only the 1/3 choice keeps the
        # total at exactly 1.
        ranker = SimilarityRanker()
        best = ranker.best_weight_sum(
            {"a": {Fraction(1, 3), Fraction(2, 3)}, "b": {Fraction(2, 3)}}
        )
        assert best == Fraction(1)

    def test_partial_match_keeps_largest_valid_sum(self):
        ranker = SimilarityRanker()
        best = ranker.best_weight_sum({"a": {Fraction(1, 4), Fraction(1, 2)}})
        assert best == Fraction(1, 2)

    def test_custom_bound(self):
        ranker = SimilarityRanker(max_weight_sum=Fraction(2))
        assert ranker.best_weight_sum({"a": {Fraction(1)}, "b": {Fraction(1)}}) == Fraction(2)

    def test_mixed_denominators_share_one_scale(self):
        ranker = SimilarityRanker()
        best = ranker.best_weight_sum(
            {"a": {Fraction(1, 3)}, "b": {Fraction(1, 2), Fraction(5, 6)}}
        )
        assert best == Fraction(5, 6)

    def test_a_later_negative_weight_can_pull_a_sum_under_the_bound(self):
        # 5/4 alone exceeds the bound, but the only weight of the station
        # after it is -1/4: pruning a partial sum at the bound itself would
        # miss the best total 1 and return 3/4.
        ranker = SimilarityRanker()
        best = ranker.best_weight_sum(
            {"a": {Fraction(1), Fraction(5, 4)}, "b": {Fraction(-1, 4)}}
        )
        assert best == Fraction(1)

    def test_every_assignment_over_the_bound_returns_none(self):
        ranker = SimilarityRanker(max_weight_sum=Fraction(1, 2))
        options = {"a": {Fraction(1, 3), Fraction(2, 3)}, "b": {Fraction(1, 4)}}
        assert ranker.best_weight_sum(options) is None


class TestUserScores:
    def test_true_target_scores_one(self):
        ranker = SimilarityRanker()
        reports = [
            _report("u1", "a", Fraction(3, 10)),
            _report("u1", "b", Fraction(7, 10)),
        ]
        assert ranker.user_scores(reports) == {"u1": Fraction(1)}

    def test_over_matching_user_deleted(self):
        # The paper's over-matching example: each of three stations reports a full
        # match (weight 1); the aggregated sum 3 exceeds 1 and the user is deleted.
        ranker = SimilarityRanker()
        reports = [_report("decoy", station, Fraction(1)) for station in ("a", "b", "c")]
        assert ranker.user_scores(reports) == {}

    def test_partial_match_scores_below_one(self):
        ranker = SimilarityRanker()
        scores = ranker.user_scores([_report("u1", "a", Fraction(2, 5))])
        assert scores["u1"] == Fraction(2, 5)

    def test_weights_of_different_queries_not_mixed(self):
        ranker = SimilarityRanker()
        reports = [
            _report("u1", "a", Fraction(1, 2), query="qA"),
            _report("u1", "b", Fraction(1, 2), query="qB"),
        ]
        # Each per-query sum is only 1/2; mixing them would (wrongly) give 1.
        assert ranker.user_scores(reports) == {"u1": Fraction(1, 2)}

    def test_best_query_wins(self):
        ranker = SimilarityRanker()
        reports = [
            _report("u1", "a", Fraction(1, 2), query="qA"),
            _report("u1", "a", Fraction(1), query="qB"),
        ]
        assert ranker.user_scores(reports)["u1"] == Fraction(1)


class TestAggregate:
    def test_ranking_order(self):
        ranker = SimilarityRanker()
        reports = [
            _report("complete", "a", Fraction(1)),
            _report("partial", "a", Fraction(1, 2)),
        ]
        results = ranker.aggregate(reports)
        assert results.user_ids() == ["complete", "partial"]
        assert results.users[0].score == 1.0

    def test_top_k_cutoff(self):
        ranker = SimilarityRanker()
        reports = [
            _report(f"user-{i}", "a", Fraction(1, i + 1)) for i in range(5)
        ]
        assert len(ranker.aggregate(reports, k=2)) == 2

    def test_k_zero_returns_empty(self):
        ranker = SimilarityRanker()
        assert len(ranker.aggregate([_report("u", "a", Fraction(1))], k=0)) == 0

    def test_negative_k_rejected(self):
        ranker = SimilarityRanker()
        with pytest.raises(ValueError):
            ranker.aggregate([], k=-1)

    def test_deterministic_tie_break(self):
        ranker = SimilarityRanker()
        reports = [
            _report("zeta", "a", Fraction(1)),
            _report("alpha", "a", Fraction(1)),
        ]
        assert ranker.aggregate(reports).user_ids() == ["alpha", "zeta"]

    def test_empty_reports(self):
        assert len(SimilarityRanker().aggregate([])) == 0


class TestConstruction:
    def test_invalid_bound_type(self):
        with pytest.raises(TypeError):
            SimilarityRanker(max_weight_sum=1.0)

    def test_non_positive_bound(self):
        with pytest.raises(ValueError):
            SimilarityRanker(max_weight_sum=Fraction(0))

    def test_bound_property(self):
        assert SimilarityRanker(Fraction(3, 2)).max_weight_sum == Fraction(3, 2)
