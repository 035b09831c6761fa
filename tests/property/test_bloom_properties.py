"""Property-based tests for the Bloom-filter substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom.hashing import HashFamily
from repro.bloom.standard import BloomFilter

items_strategy = st.lists(
    st.one_of(st.integers(-(10**6), 10**6), st.text(max_size=20)),
    max_size=60,
)


class TestBloomFilterProperties:
    @given(items=items_strategy)
    @settings(max_examples=50, deadline=None)
    def test_no_false_negatives(self, items):
        bloom = BloomFilter(2048, 4)
        bloom.add_many(items)
        assert all(item in bloom for item in items)

    @given(items=items_strategy, probe=st.integers())
    @settings(max_examples=50, deadline=None)
    def test_membership_is_deterministic(self, items, probe):
        bloom = BloomFilter(1024, 3)
        bloom.add_many(items)
        assert bloom.contains(probe) == bloom.contains(probe)

    @given(
        first=items_strategy,
        second=items_strategy,
    )
    @settings(max_examples=30, deadline=None)
    def test_union_superset_of_parts(self, first, second):
        a = BloomFilter(2048, 4, seed=1)
        b = BloomFilter(2048, 4, seed=1)
        a.add_many(first)
        b.add_many(second)
        merged = a.union(b)
        assert all(item in merged for item in first + second)

    @given(items=items_strategy)
    @settings(max_examples=30, deadline=None)
    def test_fill_ratio_monotone(self, items):
        bloom = BloomFilter(512, 3)
        previous = 0.0
        for item in items:
            bloom.add(item)
            current = bloom.fill_ratio()
            assert current >= previous
            previous = current


    @given(items=st.lists(st.integers(), min_size=1, max_size=120, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_no_false_negatives_past_the_sized_capacity(self, items):
        # m and k sized for 8 items at 1%; up to 15x that many only raises
        # the false-positive rate.
        bloom = BloomFilter(77, 7)
        bloom.add_many(items)
        assert all(item in bloom for item in items)
        assert bloom.item_count == len(items)

    @given(first=items_strategy, second=items_strategy)
    @settings(max_examples=30, deadline=None)
    def test_union_equals_the_filter_of_both_sets(self, first, second):
        a = BloomFilter(1024, 3, seed=6)
        b = BloomFilter(1024, 3, seed=6)
        both = BloomFilter(1024, 3, seed=6)
        a.add_many(first)
        b.add_many(second)
        both.add_many(first + second)
        assert a.union(b) == both

    @given(items=items_strategy)
    @settings(max_examples=30, deadline=None)
    def test_state_round_trip_preserves_membership(self, items):
        bloom = BloomFilter(700, 4, seed=3)
        bloom.add_many(items)
        rebuilt = BloomFilter.from_state(
            700, 4, 3, bloom.bits.to_bytes(), bloom.item_count, backend="python"
        )
        assert rebuilt == bloom
        probes = items + list(range(50))
        assert rebuilt.contains_many(probes) == bloom.contains_many(probes)


class TestHashFamilyProperties:
    @given(
        item=st.one_of(st.integers(), st.text(max_size=30), st.tuples(st.integers(), st.integers())),
        hash_count=st.integers(1, 16),
        value_range=st.integers(1, 10_000),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=100, deadline=None)
    def test_positions_always_in_range_and_stable(self, item, hash_count, value_range, seed):
        family = HashFamily(hash_count, value_range, seed=seed)
        positions = family.positions(item)
        assert len(positions) == hash_count
        assert all(0 <= p < value_range for p in positions)
        assert positions == family.positions(item)
