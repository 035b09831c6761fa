"""Unit tests for the Weighted Bloom Filter."""

import pickle
from fractions import Fraction

import pytest

from repro.core.wbf import WeightedBloomFilter


class TestInsertionAndMembership:
    def test_added_items_are_members(self):
        wbf = WeightedBloomFilter(1024, 4)
        wbf.add_many(range(30), Fraction(1))
        assert all(wbf.contains(v) for v in range(30))

    def test_absent_items_mostly_rejected(self):
        wbf = WeightedBloomFilter(4096, 4)
        wbf.add_many(range(100), Fraction(1, 2))
        false_positives = sum(1 for v in range(10_000, 11_000) if v in wbf)
        assert false_positives < 60

    def test_item_count(self):
        wbf = WeightedBloomFilter(256, 3)
        wbf.add("a", Fraction(1))
        wbf.add("b", Fraction(1, 2))
        assert wbf.item_count == 2

    def test_unhashable_weight_rejected(self):
        wbf = WeightedBloomFilter(256, 3)
        with pytest.raises(TypeError):
            wbf.add("a", [1, 2])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WeightedBloomFilter(0, 2)
        with pytest.raises(ValueError):
            WeightedBloomFilter(16, 0)

    def test_add_many_rejects_an_unhashable_weight(self):
        wbf = WeightedBloomFilter(256, 3)
        with pytest.raises(TypeError):
            wbf.add_many(["a", "b"], {"not": "hashable"})
        assert wbf.item_count == 0
        assert wbf.fill_ratio() == 0.0

    def test_inserting_nothing_changes_nothing(self):
        wbf = WeightedBloomFilter(256, 3)
        wbf.insert_many([], Fraction(1))
        assert (wbf.item_count, wbf.revision, wbf.fill_ratio()) == (0, 0, 0.0)

    def test_revision_counts_insertion_calls(self):
        wbf = WeightedBloomFilter(256, 3)
        wbf.add("a", Fraction(1))
        wbf.add_many(["b", "c"], Fraction(1, 2))
        assert wbf.revision == 2
        assert wbf.item_count == 3


class TestWeightedQueries:
    def test_returns_weight_of_inserted_value(self):
        wbf = WeightedBloomFilter(1024, 4)
        wbf.add("pattern-point", Fraction(3, 9))
        assert wbf.query_weights("pattern-point") == frozenset({Fraction(3, 9)})

    def test_absent_value_returns_empty(self):
        wbf = WeightedBloomFilter(1024, 4)
        wbf.add("present", Fraction(1))
        assert wbf.query_weights("absent") == frozenset()

    def test_value_inserted_twice_with_different_weights_returns_both(self):
        wbf = WeightedBloomFilter(1024, 4)
        wbf.add("shared", Fraction(1, 3))
        wbf.add("shared", Fraction(2, 3))
        assert wbf.query_weights("shared") == frozenset({Fraction(1, 3), Fraction(2, 3)})

    def test_paper_example_mixed_pattern_rejected(self):
        # The paper's example: patterns {1,2,3} and {2,4,5} are inserted with their
        # own weights; the mixed pattern {1,4,5} passes a plain membership test but
        # has no common weight across its values, so the WBF rejects it.
        wbf = WeightedBloomFilter(4096, 4)
        weight_a, weight_b = Fraction(1, 2), Fraction(1, 3)
        for value in (1, 2, 3):
            wbf.add(("point", value), weight_a)
        for value in (2, 4, 5):
            wbf.add(("point", value), weight_b)
        assert all(wbf.contains(("point", v)) for v in (1, 4, 5))
        weights_per_value = [wbf.query_weights(("point", v)) for v in (1, 4, 5)]
        common = frozenset.intersection(*weights_per_value)
        assert common == frozenset()

    def test_consistent_pattern_keeps_common_weight(self):
        wbf = WeightedBloomFilter(4096, 4)
        weight = Fraction(2, 5)
        for value in (10, 20, 30):
            wbf.add(("point", value), weight)
        weights_per_value = [wbf.query_weights(("point", v)) for v in (10, 20, 30)]
        assert frozenset.intersection(*weights_per_value) == frozenset({weight})

    def test_query_weights_at_matches_query_weights(self):
        wbf = WeightedBloomFilter(2048, 3)
        wbf.add("x", Fraction(1, 7))
        positions = wbf.hash_family.positions("x")
        assert wbf.query_weights_at(positions) == wbf.query_weights("x")

    def test_qualified_weight_tuples(self):
        wbf = WeightedBloomFilter(1024, 4)
        wbf.add("v", ("query-1", Fraction(1, 2)))
        wbf.add("v", ("query-2", Fraction(1, 2)))
        assert len(wbf.query_weights("v")) == 2


class TestIntrospection:
    def test_fill_ratio_and_fp_rate_grow(self):
        wbf = WeightedBloomFilter(512, 3)
        assert wbf.fill_ratio() == 0.0
        wbf.add_many(range(40), Fraction(1))
        assert wbf.fill_ratio() > 0.0
        assert wbf.estimated_false_positive_rate() > 0.0

    def test_distinct_weights(self):
        wbf = WeightedBloomFilter(512, 3)
        wbf.add("a", Fraction(1, 2))
        wbf.add("b", Fraction(1, 2))
        wbf.add("c", Fraction(1, 3))
        assert wbf.distinct_weights() == {Fraction(1, 2), Fraction(1, 3)}

    def test_seed_property(self):
        assert WeightedBloomFilter(64, 2, seed=5).seed == 5

    def test_repr(self):
        assert "WeightedBloomFilter" in repr(WeightedBloomFilter(64, 2))


class TestStateAndEquality:
    def _filled(self, backend="auto"):
        wbf = WeightedBloomFilter(512, 3, seed=11, backend=backend)
        wbf.add_many(range(12), ("q1", Fraction(1, 3)))
        wbf.add_many(range(8, 20), ("q1", Fraction(2, 3)))
        return wbf

    def test_weight_entries_ascend_and_ignore_insertion_order(self):
        forward = WeightedBloomFilter(512, 3)
        forward.add("a", Fraction(1, 2))
        forward.add("b", Fraction(1, 3))
        backward = WeightedBloomFilter(512, 3)
        backward.add("b", Fraction(1, 3))
        backward.add("a", Fraction(1, 2))
        entries = forward.weight_entries()
        assert [position for position, _ in entries] == sorted(p for p, _ in entries)
        assert entries == backward.weight_entries()

    def test_from_state_rebuilds_an_equal_filter(self):
        wbf = self._filled()
        rebuilt = WeightedBloomFilter.from_state(
            512,
            3,
            11,
            wbf._bits.to_bytes(),
            dict(wbf.weight_entries()),
            wbf.item_count,
            backend="python",
        )
        assert rebuilt == wbf
        assert rebuilt.backend_name == "python"
        assert rebuilt.query_many(range(20)) == wbf.query_many(range(20))

    def test_equality_ignores_the_backend(self):
        assert self._filled("python") == self._filled("auto")

    def test_equality_compares_weights_not_only_bits(self):
        a = WeightedBloomFilter(256, 3)
        b = WeightedBloomFilter(256, 3)
        a.add("x", Fraction(1, 2))
        b.add("x", Fraction(1, 3))
        assert a._bits == b._bits
        assert a != b
        assert a.__eq__(object()) is NotImplemented

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(WeightedBloomFilter(64, 2))

    def test_pickling_drops_the_probe_index_and_keeps_the_filter(self):
        wbf = self._filled()
        masks = wbf.position_masks()
        assert wbf.__getstate__()["_mask_index"] is None
        restored = pickle.loads(pickle.dumps(wbf))
        assert restored == wbf
        assert restored.position_masks() == masks

    def test_position_masks_are_zero_exactly_on_clear_bits(self):
        wbf = self._filled()
        set_bits = {position for position, _ in wbf.weight_entries()}
        masks = wbf.position_masks()
        assert len(masks) == wbf.bit_count
        assert {p for p, mask in enumerate(masks) if mask} == set_bits
