"""Property tests for the incremental Algorithm-3 ranking.

``DIMatchingProtocol().open_ranking()`` keeps the ranking up to date as
stations replace or withdraw their reports.  After every call its results
must equal :meth:`SimilarityRanker.aggregate` over the flattened reports the
stations currently hold, for every ``k``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregator import SimilarityRanker
from repro.core.dimatching import DIMatchingProtocol
from repro.core.exceptions import MatchingError
from repro.core.protocol import MatchReport

STATIONS = [f"bs-{i}" for i in range(4)]
USERS = [f"user-{i}" for i in range(5)]
#: Few distinct weights, so groups often sum past 1 and a station often
#: reports several candidate weights for one (user, query).
WEIGHTS = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]
#: k = None, 0, and more than every user.
K_VALUES = (None, 0, 1, 3, len(USERS) + 5)


@st.composite
def station_reports(draw, station_id):
    """Reports one station sends; some name another reporting station."""
    return draw(
        st.lists(
            st.builds(
                MatchReport,
                user_id=st.sampled_from(USERS),
                station_id=st.sampled_from([station_id] * 3 + STATIONS),
                weight=st.sampled_from(WEIGHTS),
                query_id=st.sampled_from(["qA", "qB", "qC"]),
            ),
            max_size=8,
        )
    )


@st.composite
def operations(draw):
    ops = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(["replace", "replace", "remove", "results", "reject"]))
        station_id = draw(st.sampled_from(STATIONS))
        if kind == "replace":
            ops.append((kind, station_id, draw(station_reports(station_id))))
        elif kind == "reject":
            reports = draw(station_reports(station_id))
            bad = draw(
                st.sampled_from(
                    [MatchReport(user_id=USERS[0], station_id=station_id), "not-a-report"]
                )
            )
            reports.insert(draw(st.integers(0, len(reports))), bad)
            ops.append((kind, station_id, reports))
        elif kind == "remove":
            ops.append((kind, station_id, None))
        else:
            ops.append((kind, None, draw(st.sampled_from(K_VALUES))))
    return ops


def _assert_matches_reference(ranking, held):
    flattened = [report for reports in held.values() for report in reports]
    reference = SimilarityRanker()
    for k in K_VALUES:
        assert ranking.results(k) == reference.aggregate(flattened, k)


class TestIncrementalRankingParity:
    @given(ops=operations())
    @settings(max_examples=300, deadline=None)
    def test_every_call_matches_a_full_aggregate(self, ops):
        ranking = DIMatchingProtocol().open_ranking()
        held: dict[str, list[MatchReport]] = {}
        for kind, station_id, payload in ops:
            if kind == "replace":
                ranking.replace(station_id, payload)
                held[station_id] = list(payload)
            elif kind == "remove":
                ranking.remove(station_id)
                held.pop(station_id, None)
            elif kind == "reject":
                with pytest.raises(MatchingError):
                    ranking.replace(station_id, payload)
            else:
                flattened = [report for reports in held.values() for report in reports]
                assert ranking.results(payload) == SimilarityRanker().aggregate(
                    flattened, payload
                )
            _assert_matches_reference(ranking, held)

    @given(first=station_reports("bs-0"), second=station_reports("bs-1"))
    @settings(max_examples=100, deadline=None)
    def test_vanish_and_return_reuses_the_previous_results(self, first, second):
        ranking = DIMatchingProtocol().open_ranking()
        ranking.replace("bs-0", first)
        ranking.replace("bs-1", second)
        before = ranking.results()
        ranking.remove("bs-0")
        ranking.replace("bs-0", first)
        assert ranking.results() is before


class TestIncrementalRankingErrors:
    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k must be"):
            DIMatchingProtocol().open_ranking().results(-1)

    def test_removing_an_unknown_station_is_a_no_op(self):
        ranking = DIMatchingProtocol().open_ranking()
        ranking.remove("bs-nowhere")
        assert len(ranking.results()) == 0
