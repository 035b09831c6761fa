"""Property-based tests for the similarity ranker (Algorithm 3)."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregator import SimilarityRanker
from repro.core.protocol import MatchReport, RankedResults, RankedUser

weight_strategy = st.fractions(min_value=Fraction(1, 100), max_value=1)

report_strategy = st.builds(
    MatchReport,
    user_id=st.sampled_from([f"user-{i}" for i in range(6)]),
    station_id=st.sampled_from([f"bs-{i}" for i in range(4)]),
    weight=weight_strategy,
    query_id=st.sampled_from(["qA", "qB"]),
)


class TestRankerProperties:
    @given(reports=st.lists(report_strategy, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_scores_bounded_by_max_weight_sum(self, reports):
        scores = SimilarityRanker().user_scores(reports)
        assert all(score <= Fraction(1) for score in scores.values())
        assert all(score > 0 for score in scores.values())

    @given(reports=st.lists(report_strategy, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_ranking_sorted_descending(self, reports):
        results = SimilarityRanker().aggregate(reports)
        scores = [entry.score for entry in results]
        assert scores == sorted(scores, reverse=True)

    @given(reports=st.lists(report_strategy, max_size=40), k=st.integers(0, 10))
    @settings(max_examples=100, deadline=None)
    def test_top_k_is_prefix_of_full_ranking(self, reports, k):
        ranker = SimilarityRanker()
        full = ranker.aggregate(reports)
        cut = ranker.aggregate(reports, k=k)
        assert cut.user_ids() == full.user_ids()[:k]

    @given(reports=st.lists(report_strategy, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_retrieved_users_are_subset_of_reported_users(self, reports):
        results = SimilarityRanker().aggregate(reports)
        assert set(results.user_ids()) <= {r.user_id for r in reports}

    @given(reports=st.lists(report_strategy, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_report_order_does_not_matter(self, reports):
        ranker = SimilarityRanker()
        forward = ranker.aggregate(reports)
        backward = ranker.aggregate(list(reversed(reports)))
        assert forward.user_ids() == backward.user_ids()

    @given(
        per_station=st.dictionaries(
            st.sampled_from([f"bs-{i}" for i in range(4)]),
            st.sets(weight_strategy, min_size=1, max_size=3),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_best_weight_sum_is_achievable_and_maximal(self, per_station):
        from itertools import product

        ranker = SimilarityRanker()
        best = ranker.best_weight_sum(per_station)
        achievable = [
            sum(choice, Fraction(0))
            for choice in product(*[sorted(options) for options in per_station.values()])
        ]
        valid = [total for total in achievable if total <= Fraction(1)]
        if valid:
            assert best == max(valid)
        else:
            assert best is None


class _GivenScores(SimilarityRanker):
    """A ranker whose Algorithm-3 scores are given, so only the ordering is tested."""

    def __init__(self, scores: dict) -> None:
        super().__init__()
        self._given = scores

    def user_scores(self, reports):
        return dict(self._given)


def reference_ranking(scores: dict, k):
    """The ranking as one sort of every user on ``(-score, user_id)``."""
    ordered = sorted(scores.items(), key=lambda entry: (-entry[1], entry[0]))
    results = RankedResults(
        tuple(RankedUser(user_id=user_id, score=float(score)) for user_id, score in ordered)
    )
    return results if k is None else results.top(k)


#: Distinct Fractions closer together than a float can tell apart.
_THIRD = Fraction(1, 3)
_CLOSE = [_THIRD - Fraction(1, 10**30), _THIRD, _THIRD + Fraction(1, 10**30)]

score_values = st.one_of(
    st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2, 3), *_CLOSE]),
    st.fractions(min_value=0, max_value=1, max_denominator=6),
)
score_maps = st.dictionaries(
    st.text(alphabet="abAB0é", max_size=4), score_values, max_size=80
)


class TestRankingOrder:
    def test_close_fractions_share_a_float(self):
        assert len(set(_CLOSE)) == 3
        assert len({float(score) for score in _CLOSE}) == 1

    @given(scores=score_maps, k=st.one_of(st.none(), st.integers(0, 90)))
    @settings(max_examples=200, deadline=None)
    def test_aggregate_matches_the_reference_sort(self, scores, k):
        assert _GivenScores(scores).aggregate([], k) == reference_ranking(scores, k)

    def test_many_ties_on_two_scores(self):
        scores = {f"u{i:04d}": Fraction(1, 2) if i % 3 else Fraction(1) for i in range(500)}
        for k in (None, 0, 7, 400, 1000):
            assert _GivenScores(scores).aggregate([], k) == reference_ranking(scores, k)
