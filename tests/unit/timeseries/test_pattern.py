"""Unit tests for the Pattern data model."""

import pytest

from repro.timeseries.pattern import GlobalPattern, LocalPattern, Pattern, PatternSet


class TestPattern:
    def test_basic_construction(self):
        pattern = Pattern("u1", [1, 2, 3])
        assert pattern.user_id == "u1"
        assert pattern.values == (1, 2, 3)
        assert len(pattern) == 3

    def test_rejects_empty_values(self):
        with pytest.raises(ValueError):
            Pattern("u1", [])

    def test_rejects_non_integer_values(self):
        with pytest.raises(TypeError):
            Pattern("u1", [1, 2.5])

    def test_iteration_and_indexing(self):
        pattern = Pattern("u1", [4, 5, 6])
        assert list(pattern) == [4, 5, 6]
        assert pattern[1] == 5

    def test_total_and_maximum(self):
        pattern = Pattern("u1", [1, 7, 2])
        assert pattern.total == 10
        assert pattern.maximum == 7

    def test_add_same_user(self):
        a = Pattern("u1", [1, 2, 3])
        b = Pattern("u1", [3, 2, 1])
        assert (a + b).values == (4, 4, 4)

    def test_add_different_user_rejected(self):
        with pytest.raises(ValueError, match="different users"):
            Pattern("u1", [1]) + Pattern("u2", [1])

    def test_add_different_length_rejected(self):
        with pytest.raises(ValueError, match="different lengths"):
            Pattern("u1", [1, 2]) + Pattern("u1", [1])

    def test_add_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            Pattern("u1", [1]) + [1]

    def test_equality_is_value_based(self):
        assert Pattern("u1", [1, 2]) == Pattern("u1", [1, 2])
        assert Pattern("u1", [1, 2]) != Pattern("u1", [2, 1])

    def test_immutability(self):
        pattern = Pattern("u1", [1, 2])
        with pytest.raises(AttributeError):
            pattern.user_id = "u2"

    def test_repr_truncates_long_patterns(self):
        pattern = Pattern("u1", list(range(20)))
        assert "..." in repr(pattern)


class TestLocalPattern:
    def test_carries_station(self):
        local = LocalPattern("u1", [1, 2], "bs-1")
        assert local.station_id == "bs-1"
        assert isinstance(local, Pattern)

    def test_repr_mentions_station(self):
        assert "bs-9" in repr(LocalPattern("u1", [1], "bs-9"))


class TestGlobalPattern:
    def test_from_locals_sums_per_interval(self):
        locals_ = [
            LocalPattern("u1", [1, 0, 2], "a"),
            LocalPattern("u1", [0, 3, 1], "b"),
        ]
        global_pattern = GlobalPattern.from_locals(locals_)
        assert global_pattern.values == (1, 3, 3)
        assert global_pattern.user_id == "u1"

    def test_from_single_local(self):
        global_pattern = GlobalPattern.from_locals([LocalPattern("u1", [5, 5], "a")])
        assert global_pattern.values == (5, 5)

    def test_from_locals_rejects_mixed_users(self):
        with pytest.raises(ValueError, match="multiple users"):
            GlobalPattern.from_locals(
                [LocalPattern("u1", [1], "a"), LocalPattern("u2", [1], "b")]
            )

    def test_from_locals_rejects_mixed_lengths(self):
        with pytest.raises(ValueError, match="different lengths"):
            GlobalPattern.from_locals(
                [LocalPattern("u1", [1], "a"), LocalPattern("u1", [1, 2], "b")]
            )

    def test_from_locals_rejects_empty(self):
        with pytest.raises(ValueError):
            GlobalPattern.from_locals([])


class TestPatternSet:
    def test_add_and_len(self):
        patterns = PatternSet([Pattern("u1", [1]), Pattern("u2", [2])])
        assert len(patterns) == 2

    def test_patterns_for_user(self):
        patterns = PatternSet([Pattern("u1", [1]), Pattern("u1", [2])])
        assert len(patterns.patterns_for("u1")) == 2
        assert patterns.patterns_for("unknown") == []

    def test_user_ids_ordered_by_first_appearance(self):
        patterns = PatternSet([Pattern("b", [1]), Pattern("a", [1]), Pattern("b", [2])])
        assert patterns.user_ids() == ["b", "a"]

    def test_contains(self):
        patterns = PatternSet([Pattern("u1", [1])])
        assert "u1" in patterns
        assert "u2" not in patterns

    def test_rejects_non_pattern(self):
        with pytest.raises(TypeError):
            PatternSet(["not-a-pattern"])

    def test_iteration_preserves_order(self):
        items = [Pattern("u1", [1]), Pattern("u2", [2])]
        assert list(PatternSet(items)) == items
