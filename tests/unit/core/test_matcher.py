"""Unit tests for the base-station matcher (Algorithm 2)."""

import time
from fractions import Fraction

import pytest

from repro.core.config import DIMatchingConfig
from repro.core.encoder import PatternEncoder
from repro.core.exceptions import MatchingError
from repro.core.matcher import BaseStationMatcher, _packed_rows
from repro.timeseries.pattern import LocalPattern, PatternSet
from repro.timeseries.query import QueryPattern


def _query():
    locals_ = [
        LocalPattern("alice", [2, 0, 0, 3], "bs-1"),
        LocalPattern("alice", [0, 4, 0, 0], "bs-2"),
        LocalPattern("alice", [0, 0, 5, 0], "bs-3"),
    ]
    return QueryPattern("q0", locals_)


@pytest.fixture()
def encoded():
    return PatternEncoder(DIMatchingConfig(sample_count=4)).encode_batch([_query()])


@pytest.fixture()
def config():
    return DIMatchingConfig(sample_count=4)


class TestPackedProbe:
    @pytest.mark.parametrize("row_count", [0, 1, 1600])
    @pytest.mark.parametrize("dtype_name", ["int32", "int64"])
    def test_packed_rows_equal_the_nested_conversion(self, row_count, dtype_name):
        np = pytest.importorskip("numpy", exc_type=ImportError)
        dtype = getattr(np, dtype_name)
        rows = [[(7 * row + column) % 997 for column in range(4)] for row in range(row_count)]
        packed = _packed_rows(rows, 4, dtype)
        expected = np.array(rows, dtype=dtype).reshape(row_count, 4)
        assert packed.dtype == dtype
        assert packed.shape == (row_count, 4)
        assert np.array_equal(packed, expected)
        # One array that owns its data, not a view of another.
        assert packed.base is None
        assert packed.flags["C_CONTIGUOUS"]

    def test_a_station_probe_is_packed_on_both_dtypes(self):
        np = pytest.importorskip("numpy", exc_type=ImportError)
        from repro.bloom.hashing import HashFamily

        patterns = PatternSet(
            [LocalPattern("u1", [1, 2, 0, 3], "bs"), LocalPattern("u2", [0, 0, 4, 1], "bs")]
        )
        for value_range, dtype in ((1 << 12, np.int32), ((1 << 31) + 1, np.int64)):
            family = HashFamily(3, value_range, seed=5)
            matcher = BaseStationMatcher(DIMatchingConfig(sample_count=4), "bs", patterns)
            probe = matcher._probe_for(family)
            items = [item for pattern in patterns for item in matcher._probe_items(pattern)]
            assert probe.dtype == dtype
            assert np.array_equal(probe, np.array(family.indices_batch(items), dtype=dtype))
            assert probe.base is None


class TestMatchPattern:
    def test_exact_fragment_matches_with_its_weight(self, encoded, config):
        fragment = LocalPattern("bob", [2, 0, 0, 3], "bs-9")
        matcher = BaseStationMatcher(config, "bs-9", PatternSet([fragment]))
        matched = matcher.match_pattern(fragment, encoded.wbf)
        assert matched == {"q0": frozenset({Fraction(5, 14)})}

    def test_global_pattern_matches_with_weight_one(self, encoded, config):
        fragment = LocalPattern("bob", [2, 4, 5, 3], "bs-9")
        matcher = BaseStationMatcher(config, "bs-9", PatternSet([fragment]))
        matched = matcher.match_pattern(fragment, encoded.wbf)
        assert matched == {"q0": frozenset({Fraction(1)})}

    def test_combined_fragment_matches_pair_combination(self, encoded, config):
        fragment = LocalPattern("bob", [2, 4, 0, 3], "bs-9")
        matcher = BaseStationMatcher(config, "bs-9", PatternSet([fragment]))
        matched = matcher.match_pattern(fragment, encoded.wbf)
        assert matched == {"q0": frozenset({Fraction(9, 14)})}

    def test_unrelated_pattern_does_not_match(self, encoded, config):
        fragment = LocalPattern("bob", [7, 7, 7, 7], "bs-9")
        matcher = BaseStationMatcher(config, "bs-9", PatternSet([fragment]))
        assert matcher.match_pattern(fragment, encoded.wbf) == {}

    def test_reordered_values_do_not_match(self, encoded, config):
        # {3,0,0,2} has the same values as the fragment {2,0,0,3} but a different
        # order; the accumulation transform distinguishes them.
        fragment = LocalPattern("bob", [3, 0, 0, 2], "bs-9")
        matcher = BaseStationMatcher(config, "bs-9", PatternSet([fragment]))
        assert matcher.match_pattern(fragment, encoded.wbf) == {}

    def test_epsilon_tolerance_accepts_close_pattern(self):
        config = DIMatchingConfig(sample_count=4, epsilon=1)
        encoded = PatternEncoder(config).encode_batch([_query()])
        fragment = LocalPattern("bob", [2, 0, 1, 3], "bs-9")
        matcher = BaseStationMatcher(config, "bs-9", PatternSet([fragment]))
        matched = matcher.match_pattern(fragment, encoded.wbf)
        assert "q0" in matched


class TestMatchAgainst:
    def test_reports_matching_users_with_weights(self, encoded, config):
        patterns = PatternSet(
            [
                LocalPattern("match-global", [2, 4, 5, 3], "bs-9"),
                LocalPattern("match-home", [2, 0, 0, 3], "bs-9"),
                LocalPattern("no-match", [9, 9, 9, 9], "bs-9"),
            ]
        )
        matcher = BaseStationMatcher(config, "bs-9", patterns)
        reports = matcher.match_against(encoded)
        by_user = {r.user_id: r for r in reports}
        assert set(by_user) == {"match-global", "match-home"}
        assert by_user["match-global"].weight == Fraction(1)
        assert by_user["match-home"].weight == Fraction(5, 14)
        assert all(r.station_id == "bs-9" for r in reports)
        assert all(r.query_id == "q0" for r in reports)

    def test_candidate_count(self, config):
        patterns = PatternSet([LocalPattern("a", [1, 1, 1, 1], "bs-9")])
        matcher = BaseStationMatcher(config, "bs-9", patterns)
        assert matcher.candidate_count == 1
        assert matcher.station_id == "bs-9"

    def test_empty_station_produces_no_reports(self, encoded, config):
        matcher = BaseStationMatcher(config, "bs-9", PatternSet())
        assert matcher.match_against(encoded) == []

    def test_mismatched_sample_count_rejected(self, encoded):
        other_config = DIMatchingConfig(sample_count=8)
        matcher = BaseStationMatcher(
            other_config, "bs-9", PatternSet([LocalPattern("a", [1, 1, 1, 1], "bs-9")])
        )
        with pytest.raises(MatchingError, match="sample counts differ"):
            matcher.match_against(encoded)

    def test_position_cache_reset_between_filters(self, config):
        # Two filters with different sizes must not share cached positions.
        small = PatternEncoder(config.with_updates(bits_per_element=8)).encode_batch([_query()])
        large = PatternEncoder(config.with_updates(bits_per_element=64)).encode_batch([_query()])
        fragment = LocalPattern("bob", [2, 4, 5, 3], "bs-9")
        matcher = BaseStationMatcher(config, "bs-9", PatternSet([fragment]))
        first = matcher.match_against(small)
        second = matcher.match_against(large)
        assert {r.user_id for r in first} == {"bob"}
        assert {r.user_id for r in second} == {"bob"}


    def test_probe_is_reused_and_rebuilt_per_family(self, config):
        from repro import wire

        batch = PatternEncoder(config).encode_batch([_query()])
        first = wire.decode(wire.encode(batch))
        second = wire.decode(wire.encode(batch))
        other_family = PatternEncoder(config.with_updates(bits_per_element=64)).encode_batch(
            [_query()]
        )
        patterns = PatternSet(
            [
                LocalPattern("match-global", [2, 4, 5, 3], "bs-9"),
                LocalPattern("no-match", [9, 9, 9, 9], "bs-9"),
            ]
        )
        matcher = BaseStationMatcher(config, "bs-9", patterns)
        expected = matcher.match_against(first)
        assert [r.user_id for r in expected] == ["match-global"]
        probe = matcher._probe
        # The probe is reused by another filter of the same hash family,
        # rebuilt only for another family, and rebuilt again on the way
        # back: every round answers the same.
        assert matcher.match_against(second) == expected
        assert matcher._probe is probe
        for encoded in (other_family, first, second):
            assert matcher.match_against(encoded) == expected
        assert matcher._probe is not probe

    def test_a_station_builds_its_columns_in_linear_time(self, encoded, config):
        # Every stored pattern matches, so the station's report count is its
        # pattern count.  Eight times the hits must cost about eight times
        # the time (growing the columns by copying would cost about 64x).
        def best_time(count: int) -> float:
            patterns = PatternSet(
                [LocalPattern(f"u{index:05d}", [2, 4, 5, 3], "bs-9") for index in range(count)]
            )
            matcher = BaseStationMatcher(config, "bs-9", patterns)
            assert len(matcher.match_against(encoded)) == count
            best = float("inf")
            for _ in range(7):
                start = time.perf_counter()
                matcher.match_against(encoded)
                best = min(best, time.perf_counter() - start)
            return best

        assert best_time(16_000) < 24 * best_time(2_000)


class TestPlainMatching:
    def test_membership_only_matching_reports_without_weights(self, config):
        encoder = PatternEncoder(config)
        bloom = encoder.encode_batch_plain([_query()])
        patterns = PatternSet(
            [
                LocalPattern("match", [2, 4, 5, 3], "bs-9"),
                LocalPattern("no-match", [9, 9, 9, 9], "bs-9"),
            ]
        )
        matcher = BaseStationMatcher(config, "bs-9", patterns)
        reports = matcher.match_against_plain(bloom)
        assert [r.user_id for r in reports] == ["match"]
        assert reports[0].weight is None
