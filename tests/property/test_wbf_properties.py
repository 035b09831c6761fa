"""Property-based tests for the Weighted Bloom Filter."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wbf import WeightedBloomFilter

weights_strategy = st.fractions(min_value=0, max_value=1)


class TestWeightedBloomFilterProperties:
    @given(entries=st.lists(st.tuples(st.integers(0, 10_000), weights_strategy), max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_no_false_negatives_and_weight_present(self, entries):
        wbf = WeightedBloomFilter(4096, 4)
        for item, weight in entries:
            wbf.add(item, weight)
        for item, weight in entries:
            assert wbf.contains(item)
            assert weight in wbf.query_weights(item)

    @given(
        entries=st.lists(
            st.tuples(st.integers(0, 1000), weights_strategy), min_size=1, max_size=40
        ),
        probe=st.integers(0, 1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_query_weights_subset_of_inserted_weights(self, entries, probe):
        wbf = WeightedBloomFilter(2048, 4)
        for item, weight in entries:
            wbf.add(item, weight)
        all_weights = {weight for _, weight in entries}
        assert wbf.query_weights(probe) <= all_weights

    @given(entries=st.lists(st.tuples(st.integers(0, 1000), weights_strategy), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_membership_consistent_with_weight_query(self, entries):
        wbf = WeightedBloomFilter(2048, 4)
        for item, weight in entries:
            wbf.add(item, weight)
        for item, _ in entries:
            # A non-empty weighted answer implies plain membership.
            if wbf.query_weights(item):
                assert wbf.contains(item)

    @given(
        item=st.integers(),
        weights=st.lists(weights_strategy, min_size=1, max_size=5, unique=True),
    )
    @settings(max_examples=50, deadline=None)
    def test_same_item_accumulates_all_weights(self, item, weights):
        wbf = WeightedBloomFilter(1024, 4)
        for weight in weights:
            wbf.add(item, weight)
        assert wbf.query_weights(item) == frozenset(weights)

    @given(entries=st.lists(st.tuples(st.integers(0, 500), weights_strategy), max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_item_count_and_fill_ratio_bounds(self, entries):
        wbf = WeightedBloomFilter(1024, 3)
        for item, weight in entries:
            wbf.add(item, weight)
        assert wbf.item_count == len(entries)
        assert 0.0 <= wbf.fill_ratio() <= 1.0
