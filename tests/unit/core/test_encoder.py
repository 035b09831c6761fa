"""Unit tests for the data-center pattern encoder (Algorithm 1)."""

from fractions import Fraction

import pytest

from repro.bloom.standard import BloomFilter
from repro.core.config import DIMatchingConfig
from repro.core.encoder import (
    BITS_PER_ITEM,
    MAX_LOCAL_PATTERNS,
    MIN_BIT_COUNT,
    EncodedQueryBatch,
    PatternEncoder,
    bits_for_items,
)
from repro.core.exceptions import EncodingError
from repro.timeseries.pattern import LocalPattern
from repro.timeseries.query import QueryPattern
from repro.timeseries.sampling import uniform_sample_indices


def _query(query_id="q0"):
    locals_ = [
        LocalPattern("alice", [1, 0, 0, 2], "bs-1"),
        LocalPattern("alice", [0, 3, 0, 0], "bs-2"),
        LocalPattern("alice", [0, 0, 4, 0], "bs-3"),
    ]
    return QueryPattern(query_id, locals_)


class TestCombinedPatterns:
    def test_combination_count(self):
        encoder = PatternEncoder(DIMatchingConfig())
        assert len(encoder.combined_patterns(_query())) == 7

    def test_weights_are_fraction_of_global_total(self):
        encoder = PatternEncoder(DIMatchingConfig())
        combos = encoder.combined_patterns(_query())
        global_total = 1 + 2 + 3 + 4
        for combo in combos:
            assert combo.weight == Fraction(combo.accumulated[-1], global_total)

    def test_full_combination_has_weight_one(self):
        encoder = PatternEncoder(DIMatchingConfig())
        weights = {c.weight for c in encoder.combined_patterns(_query())}
        assert Fraction(1) in weights

    def test_paper_weight_example(self):
        # Weight of local pattern {1,2,3} w.r.t. global {4,7,9} is 3/9 = max/max
        # of the accumulated forms ({1,3,6} vs {4,11,20} -> 6/20 of the totals);
        # the paper states the raw-value ratio, our encoder uses the accumulated
        # totals which is the same quantity for the full pattern.
        locals_ = [
            LocalPattern("u", [1, 2, 3], "a"),
            LocalPattern("u", [3, 5, 6], "b"),
        ]
        query = QueryPattern("q", locals_)
        encoder = PatternEncoder(DIMatchingConfig())
        combos = {c.accumulated: c.weight for c in encoder.combined_patterns(query)}
        assert combos[(1, 3, 6)] == Fraction(6, 20)

    def test_disjoint_singleton_weights_sum_to_one(self):
        # The query's three fragments have totals 3, 3 and 4 (global total 10); the
        # weights of the three singleton combinations must sum exactly to 1, which is
        # what lets a true target's per-station reports aggregate to exactly 1.
        encoder = PatternEncoder(DIMatchingConfig())
        combos = encoder.combined_patterns(_query())
        singleton_weights = [c.weight for c in combos if c.accumulated[-1] in (3, 4)]
        assert len(singleton_weights) == 3
        assert sum(singleton_weights, Fraction(0)) == Fraction(1)

    def test_zero_weight_combinations_dropped(self):
        locals_ = [
            LocalPattern("u", [0, 0], "a"),
            LocalPattern("u", [1, 2], "b"),
        ]
        encoder = PatternEncoder(DIMatchingConfig())
        combos = encoder.combined_patterns(QueryPattern("q", locals_))
        assert all(c.weight > 0 for c in combos)

    def test_duplicate_shapes_deduplicated_keeping_larger_weight(self):
        locals_ = [
            LocalPattern("u", [0, 0], "a"),
            LocalPattern("u", [1, 2], "b"),
        ]
        encoder = PatternEncoder(DIMatchingConfig())
        combos = encoder.combined_patterns(QueryPattern("q", locals_))
        shapes = [c.accumulated for c in combos]
        assert len(shapes) == len(set(shapes))
        assert {c.weight for c in combos} == {Fraction(1)}

    def test_all_zero_query_rejected(self):
        locals_ = [LocalPattern("u", [0, 0], "a")]
        encoder = PatternEncoder(DIMatchingConfig())
        with pytest.raises(EncodingError):
            encoder.combined_patterns(QueryPattern("q", locals_))

    def test_too_many_local_patterns_rejected(self):
        # 2^13 - 1 combinations is past the encoder's limit of 12 fragments.
        locals_ = [LocalPattern("u", [1, 1], f"bs-{i}") for i in range(MAX_LOCAL_PATTERNS + 1)]
        encoder = PatternEncoder(DIMatchingConfig())
        with pytest.raises(EncodingError, match="13 local fragments; the maximum is 12"):
            encoder.combined_patterns(QueryPattern("q", locals_))

    def test_the_fragment_limit_itself_is_accepted(self):
        locals_ = [
            LocalPattern("u", [2**i, 0], f"bs-{i}") for i in range(MAX_LOCAL_PATTERNS)
        ]
        combos = PatternEncoder(DIMatchingConfig()).combined_patterns(QueryPattern("q", locals_))
        assert len(combos) == 2**MAX_LOCAL_PATTERNS - 1


class TestItemEnumeration:
    def test_sample_indices_respect_sample_count(self):
        encoder = PatternEncoder(DIMatchingConfig(sample_count=3))
        assert len(encoder.sample_indices(100)) == 3

    @pytest.mark.parametrize("sample_count", range(1, 17))
    def test_cached_sample_indices_equal_uniform_sampling(self, sample_count):
        encoder = PatternEncoder(DIMatchingConfig(sample_count=sample_count))
        for length in range(1, 65):
            indices = encoder.sample_indices(length)
            assert list(indices) == uniform_sample_indices(length, sample_count)
            # Sampled once per length: later calls return the held tuple.
            assert encoder.sample_indices(length) is indices

    def test_candidate_items_include_index_by_default(self):
        encoder = PatternEncoder(DIMatchingConfig(sample_count=2))
        items = encoder.items_for_accumulated([1, 2, 3, 4])
        assert all(isinstance(item, tuple) and len(item) == 2 for item in items)

    def test_candidate_items_values_only_when_configured(self):
        encoder = PatternEncoder(DIMatchingConfig(sample_count=2, include_sample_index=False))
        items = encoder.items_for_accumulated([1, 2, 3, 4])
        assert all(isinstance(item, int) for item in items)

    def test_insertions_include_epsilon_band(self):
        config = DIMatchingConfig(sample_count=2, epsilon=1)
        encoder = PatternEncoder(config)
        insertions, _, _ = encoder.enumerate_insertions([_query()])
        items = {item for item, _ in insertions}
        # The final accumulated value of the global combination is 10; its ±1 band
        # must be present.
        last_index = 3
        assert (last_index, 9) in items and (last_index, 10) in items and (last_index, 11) in items

    def test_the_epsilon_band_is_plus_or_minus_epsilon_at_every_index(self):
        # The band does not widen with the time index: ±ε at index 0 and at 3.
        encoder = PatternEncoder(DIMatchingConfig(sample_count=2, epsilon=1))
        insertions, _, _ = encoder.enumerate_insertions([_query()])
        by_index: dict[int, set[int]] = {}
        for (index, value), _weight in insertions:
            by_index.setdefault(index, set()).add(value)
        assert sorted(by_index) == [0, 3]
        # Index 0 holds 0 and 1 (the band clipped at 0); index 3 holds the
        # accumulated totals 3, 4, 6, 7 and 10, each with its ±1 neighbours.
        assert by_index[0] == {0, 1, 2}
        assert by_index[3] == {2, 3, 4, 5, 6, 7, 8, 9, 10, 11}

    def test_epsilon_zero_inserts_only_the_sampled_values(self):
        encoder = PatternEncoder(DIMatchingConfig(sample_count=2, epsilon=0))
        insertions, _, combined = encoder.enumerate_insertions([_query()])
        assert len(insertions) == 2 * combined

    def test_insertions_carry_query_qualified_weights(self):
        encoder = PatternEncoder(DIMatchingConfig(sample_count=2))
        insertions, _, _ = encoder.enumerate_insertions([_query("my-query")])
        assert all(weight[0] == "my-query" for _, weight in insertions)
        assert all(isinstance(weight[1], Fraction) for _, weight in insertions)

    def test_mixed_lengths_rejected(self):
        short = QueryPattern("short", [LocalPattern("u", [1, 2], "a")])
        encoder = PatternEncoder(DIMatchingConfig())
        with pytest.raises(EncodingError, match="same length"):
            encoder.enumerate_insertions([_query(), short])

    def test_duplicate_query_ids_rejected(self):
        encoder = PatternEncoder(DIMatchingConfig())
        with pytest.raises(EncodingError, match="unique"):
            encoder.enumerate_insertions([_query("same"), _query("same")])

    def test_empty_batch_rejected(self):
        encoder = PatternEncoder(DIMatchingConfig())
        with pytest.raises(ValueError):
            encoder.enumerate_insertions([])


class TestEncodeBatch:
    def test_returns_encoded_batch(self):
        encoder = PatternEncoder(DIMatchingConfig())
        batch = encoder.encode_batch([_query()])
        assert isinstance(batch, EncodedQueryBatch)
        assert batch.query_count == 1
        assert batch.combined_pattern_count == 7
        assert batch.pattern_length == 4
        assert batch.inserted_item_count == batch.wbf.item_count

    def test_a_small_batch_gets_the_floor_size(self):
        # 7 combined patterns x 4 sampled indices = 28 items; 28 x 12 bits
        # is under the 1,024-bit floor.
        batch = PatternEncoder(DIMatchingConfig()).encode_batch([_query()])
        assert batch.inserted_item_count == 28
        assert batch.wbf.bit_count == MIN_BIT_COUNT == 1024
        assert bits_for_items(85) == 1024
        assert bits_for_items(86) == 1032

    def test_a_large_batch_gets_twelve_bits_per_item(self):
        encoder = PatternEncoder(DIMatchingConfig(epsilon=2))
        batch = encoder.encode_batch([_query("a"), _query("b")])
        items = batch.inserted_item_count
        assert items * BITS_PER_ITEM > MIN_BIT_COUNT
        assert batch.wbf.bit_count == 12 * items
        bloom = encoder.encode_batch_plain([_query("a"), _query("b")])
        assert bloom.bit_count == batch.wbf.bit_count

    def test_filters_hash_with_seed_zero(self):
        encoder = PatternEncoder(DIMatchingConfig())
        assert encoder.encode_batch([_query()]).wbf.seed == 0
        assert encoder.encode_batch_plain([_query()]).hash_family.seed == 0

    def test_encode_batch_plain_matches_item_enumeration(self):
        encoder = PatternEncoder(DIMatchingConfig())
        bloom = encoder.encode_batch_plain([_query()])
        assert isinstance(bloom, BloomFilter)
        insertions, _, _ = encoder.enumerate_insertions([_query()])
        assert bloom.item_count == len(insertions)
        assert all(item in bloom for item, _ in insertions)

    def test_multiple_queries_share_one_filter(self):
        encoder = PatternEncoder(DIMatchingConfig())
        batch = encoder.encode_batch([_query("a"), _query("b")])
        assert batch.query_count == 2
        assert batch.combined_pattern_count == 14
