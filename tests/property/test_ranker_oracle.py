"""Algorithm 3's exact weight search against the ranker it replaced and brute force.

``SimilarityRanker.best_weight_sum`` solves each ``(user, query)`` group as a
multiple-choice subset sum on integers, and ``user_scores`` runs it for every
group of every batch.  The references below are the ranker as it stood
before, kept whole: a ``best_weight_sum`` that enumerates every assignment
but, past ``_MAX_ASSIGNMENT_ENUMERATION`` assignments, keeps only each
station's ``_MAX_OPTIONS_PER_STATION`` largest weights; and a ``user_scores``
that, with NumPy present and at least ``_COLUMNAR_MIN_REPORTS`` reports,
groups through a packed ``int64`` column instead of dicts.

Within the enumeration limit the reference is exact, so every score, and the
order users first appear in, must equal it, on batches both above and below
the columnar threshold.  Past the limit the reference can delete a complete
match, so the search is held to an ``itertools.product`` brute force instead,
on groups of at least 5 stations with at least 5 options each, negative
weights among them, under the bounds 1/2, 1 and 3/2.

Nothing here imports ``repro.datagen``, so the file runs without NumPy; the
reference dispatch then takes its plain path, as it did.
"""

from fractions import Fraction
from itertools import product

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.aggregator import SimilarityRanker
from repro.core.exceptions import MatchingError
from repro.core.protocol import MatchReport

try:
    import numpy as np
except ImportError:
    np = None

# -- the reference ranker ----------------------------------------------------------

_MAX_ASSIGNMENT_ENUMERATION = 4096
_MAX_OPTIONS_PER_STATION = 4
_COLUMNAR_MIN_REPORTS = 64
_CODE_BITS = 21
_CODE_LIMIT = 1 << _CODE_BITS
_CODE_MASK = _CODE_LIMIT - 1


def reference_weight_options(reports):
    options = {}
    for report in reports:
        if report.weight is None:
            raise MatchingError(
                f"report for user {report.user_id!r} carries no weight; "
                "SimilarityRanker requires weighted reports"
            )
        per_station = options.setdefault((report.user_id, report.query_id), {})
        per_station.setdefault(report.station_id, set()).add(report.weight)
    return options


def reference_best_weight_sum(bound, options_by_station):
    if all(len(weights) == 1 for weights in options_by_station.values()):
        total = sum(
            (next(iter(weights)) for weights in options_by_station.values()),
            Fraction(0),
        )
        return None if total > bound else total
    option_lists = [sorted(weights, reverse=True) for weights in options_by_station.values()]
    combination_count = 1
    for option_list in option_lists:
        combination_count *= len(option_list)
    if combination_count > _MAX_ASSIGNMENT_ENUMERATION:
        option_lists = [option_list[:_MAX_OPTIONS_PER_STATION] for option_list in option_lists]
    best = None
    for assignment in product(*option_lists):
        total = sum(assignment, Fraction(0))
        if total > bound:
            continue
        if best is None or total > best:
            best = total
    return best


def reference_user_scores(bound, reports, columnar=True):
    """The reference dispatch: columnar for bulk batches when NumPy is present."""
    if columnar and np is not None and len(reports) >= _COLUMNAR_MIN_REPORTS:
        scores = reference_user_scores_columnar(bound, reports)
        if scores is not None:
            return scores
    best = {}
    for (user_id, _query_id), per_station in reference_weight_options(reports).items():
        weight_sum = reference_best_weight_sum(bound, per_station)
        if weight_sum is None:
            continue
        current = best.get(user_id)
        if current is None or weight_sum > current:
            best[user_id] = weight_sum
    return best


def reference_user_scores_columnar(bound, reports):
    uq_codes, uq_list = {}, []
    station_codes, station_list = {}, []
    weight_codes, weight_list = {}, []
    count = len(reports)
    uq_arr = np.empty(count, dtype=np.int64)
    st_arr = np.empty(count, dtype=np.int64)
    w_arr = np.empty(count, dtype=np.int64)
    for index, report in enumerate(reports):
        if report.weight is None:
            raise MatchingError(
                f"report for user {report.user_id!r} carries no weight; "
                "SimilarityRanker requires weighted reports"
            )
        key = (report.user_id, report.query_id)
        code = uq_codes.get(key)
        if code is None:
            code = len(uq_list)
            uq_codes[key] = code
            uq_list.append(key)
        uq_arr[index] = code
        station_code = station_codes.get(report.station_id)
        if station_code is None:
            station_code = len(station_list)
            station_codes[report.station_id] = station_code
            station_list.append(report.station_id)
        st_arr[index] = station_code
        weight_code = weight_codes.get(report.weight)
        if weight_code is None:
            weight_code = len(weight_list)
            weight_codes[report.weight] = weight_code
            weight_list.append(report.weight)
        w_arr[index] = weight_code
    if (
        len(uq_list) >= _CODE_LIMIT
        or len(station_list) >= _CODE_LIMIT
        or len(weight_list) >= _CODE_LIMIT
    ):
        return None
    packed = (uq_arr << (2 * _CODE_BITS)) | (st_arr << _CODE_BITS) | w_arr
    unique = np.unique(packed)
    uq_sorted = unique >> (2 * _CODE_BITS)
    st_sorted = (unique >> _CODE_BITS) & _CODE_MASK
    w_sorted = unique & _CODE_MASK
    starts = np.flatnonzero(np.r_[True, uq_sorted[1:] != uq_sorted[:-1]])
    ends = np.r_[starts[1:], len(unique)]
    spans = {int(uq_sorted[start]): (int(start), int(end)) for start, end in zip(starts, ends)}
    best = {}
    for code, (user_id, _query_id) in enumerate(uq_list):
        start, end = spans[code]
        station_slice = st_sorted[start:end]
        weight_slice = w_sorted[start:end].tolist()
        if end - start == 1 or bool((station_slice[1:] != station_slice[:-1]).all()):
            total = sum((weight_list[weight_code] for weight_code in weight_slice), Fraction(0))
            if total > bound:
                continue
        else:
            per_station = {}
            for station_code, weight_code in zip(station_slice.tolist(), weight_slice):
                per_station.setdefault(station_list[station_code], set()).add(
                    weight_list[weight_code]
                )
            maybe_total = reference_best_weight_sum(bound, per_station)
            if maybe_total is None:
                continue
            total = maybe_total
        current = best.get(user_id)
        if current is None or total > current:
            best[user_id] = total
    return best


# -- strategies ----------------------------------------------------------------------

BOUNDS = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
STATIONS = [f"bs-{i}" for i in range(4)]
#: Eight weights over twelfths, one negative: at most 8^4 = 4,096 assignments
#: per group, so the reference never truncates.
WEIGHTS = [
    Fraction(-1, 4),
    Fraction(1, 12),
    Fraction(1, 4),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(3, 4),
    Fraction(1),
]

reports_strategy = st.builds(
    MatchReport,
    user_id=st.sampled_from([f"user-{i}" for i in range(12)]),
    station_id=st.sampled_from(STATIONS),
    weight=st.sampled_from(WEIGHTS),
    query_id=st.sampled_from(["qA", "qB"]),
)
#: Batches on both sides of the reference's columnar threshold.
batches = st.one_of(
    st.lists(reports_strategy, max_size=_COLUMNAR_MIN_REPORTS - 1),
    st.lists(
        reports_strategy,
        min_size=_COLUMNAR_MIN_REPORTS,
        max_size=3 * _COLUMNAR_MIN_REPORTS,
    ),
)
narrow_groups = st.dictionaries(
    st.sampled_from(STATIONS),
    st.sets(st.sampled_from(WEIGHTS), min_size=1, max_size=8),
    min_size=1,
    max_size=4,
)


@st.composite
def wide_groups(draw):
    """``(scale, numerators per station, bound)``: over 4,096 assignments.

    Each weight is ``Fraction(numerator, scale)``, as the encoder writes
    ``Fraction(sum(combination), D_q)``, so the weights reduce to different
    denominators while the brute force sums plain integers.  Every scale is
    even, so every bound is a whole number of ``1/scale``.
    """
    scale = draw(st.sampled_from([10, 12, 60, 100]))
    station_count = draw(st.integers(5, 6))
    least = 6 if station_count == 5 else 5
    numerators = [
        draw(
            st.lists(
                st.integers(-scale // 2, scale), min_size=least, max_size=7, unique=True
            )
        )
        for _ in range(station_count)
    ]
    return scale, numerators, draw(st.sampled_from(BOUNDS))


def brute_force(scale, numerators, bound):
    """The best assignment total at or under ``bound``, by trying every one."""
    cap = bound * scale
    assert cap.denominator == 1
    totals = [total for total in map(sum, product(*numerators)) if total <= cap]
    return Fraction(max(totals), scale) if totals else None


def _options(scale, numerators):
    return {
        f"bs-{index}": {Fraction(numerator, scale) for numerator in station}
        for index, station in enumerate(numerators)
    }


def _bulk_reports():
    """Exact, partial, over-matching, multi-query and multi-option users."""
    reports = []

    def report(user, station, weight, query="q0"):
        reports.append(MatchReport(user, station, weight, query))

    for i in range(80):
        report(f"u{i:03d}", "a", Fraction(1, 2))
        report(f"u{i:03d}", "b", Fraction(1, 2), query="q1")
    for i in range(10):  # exact matches across two stations
        report(f"x{i}", "a", Fraction(1, 3))
        report(f"x{i}", "b", Fraction(2, 3))
    for i in range(6):  # over-matchers: every assignment beyond the bound
        report(f"o{i}", "a", Fraction(1))
        report(f"o{i}", "b", Fraction(1, 2))
    for i in range(6):  # two candidate weights at one station
        report(f"m{i}", "a", Fraction(1, 4))
        report(f"m{i}", "a", Fraction(3, 4))
        report(f"m{i}", "b", Fraction(1, 4))
    return reports


#: Five stations, each offering the same six weights.  Only 6/10 + 4 x 1/10
#: reaches 1; the reference's truncation to each station's four largest
#: weights drops 1/10 and deletes the user.
TRUNCATED = {
    f"bs-{i}": {Fraction(n, 100) for n in (1, 10, 60, 70, 80, 90)} for i in range(5)
}


# -- within the enumeration limit: the reference is exact -----------------------------


class TestAgainstTheReference:
    @given(options=narrow_groups, bound=st.sampled_from(BOUNDS))
    @settings(max_examples=200, deadline=None)
    def test_best_weight_sum_equals_the_reference(self, options, bound):
        assert SimilarityRanker(bound).best_weight_sum(options) == (
            reference_best_weight_sum(bound, options)
        )

    @given(reports=batches, bound=st.sampled_from(BOUNDS))
    @example(reports=_bulk_reports(), bound=Fraction(1))
    @settings(max_examples=150, deadline=None)
    def test_user_scores_equal_the_reference_in_its_order(self, reports, bound):
        scores = SimilarityRanker(bound).user_scores(reports)
        assert list(scores.items()) == list(reference_user_scores(bound, reports).items())
        assert all(type(score) is Fraction for score in scores.values())

    def test_bulk_batch_through_both_reference_paths(self):
        reports = _bulk_reports()
        scores = SimilarityRanker().user_scores(reports)
        plain = reference_user_scores(Fraction(1), reports, columnar=False)
        assert list(scores.items()) == list(plain.items())
        if np is not None:
            columnar = reference_user_scores_columnar(Fraction(1), reports)
            assert list(scores.items()) == list(columnar.items())
        assert scores["u000"] == Fraction(1, 2)
        assert scores["x0"] == scores["m0"] == Fraction(1)
        assert not any(user.startswith("o") for user in scores)


# -- past the enumeration limit: brute force ------------------------------------------


class TestPastTheEnumerationLimit:
    @given(case=wide_groups())
    @settings(max_examples=40, deadline=None)
    def test_best_weight_sum_equals_brute_force(self, case):
        scale, numerators, bound = case
        options = _options(scale, numerators)
        count = 1
        for station in numerators:
            count *= len(station)
        assert count > _MAX_ASSIGNMENT_ENUMERATION
        assert SimilarityRanker(bound).best_weight_sum(options) == brute_force(
            scale, numerators, bound
        )

    @given(case=wide_groups())
    @settings(max_examples=20, deadline=None)
    def test_full_and_incremental_rankings_equal_brute_force(self, case):
        scale, numerators, bound = case
        ranker = SimilarityRanker(bound)
        ranking = ranker.open_ranking()
        reports = []
        for station_id, weights in _options(scale, numerators).items():
            station_reports = [MatchReport("u", station_id, weight) for weight in weights]
            ranking.replace(station_id, station_reports)
            reports.extend(station_reports)
        best = brute_force(scale, numerators, bound)
        expected = {} if best is None else {"u": best}
        assert ranker.user_scores(reports) == expected
        assert ranking.results() == ranker.aggregate(reports)

    def test_a_truncated_complete_match_sums_to_one(self):
        assert reference_best_weight_sum(Fraction(1), TRUNCATED) is None
        assert SimilarityRanker().best_weight_sum(TRUNCATED) == Fraction(1)

    def test_aggregate_ranks_the_truncated_match_at_one(self):
        reports = [
            MatchReport("target", station_id, weight)
            for station_id, weights in TRUNCATED.items()
            for weight in sorted(weights)
        ]
        results = SimilarityRanker().aggregate(reports)
        assert [(user.user_id, user.score) for user in results] == [("target", 1.0)]

    def test_incremental_ranking_ranks_the_truncated_match_at_one(self):
        ranking = SimilarityRanker().open_ranking()
        for station_id, weights in TRUNCATED.items():
            ranking.replace(
                station_id,
                [MatchReport("target", station_id, weight) for weight in sorted(weights)],
            )
            assert ranking.results().user_ids() == ["target"]
        assert [(user.user_id, user.score) for user in ranking.results()] == [
            ("target", 1.0)
        ]
