"""Unit tests for the classic Bloom filter."""

import random

import pytest

from repro.bloom.standard import BloomFilter


class TestBasicOperations:
    def test_added_items_are_found(self):
        bloom = BloomFilter(bit_count=1024, hash_count=4)
        for value in range(50):
            bloom.add(value)
        assert all(value in bloom for value in range(50))

    def test_no_false_negatives_for_strings(self):
        bloom = BloomFilter(2048, 5)
        words = [f"user-{i}" for i in range(100)]
        bloom.add_many(words)
        assert all(bloom.contains(word) for word in words)

    def test_unadded_items_mostly_absent(self):
        bloom = BloomFilter(4096, 4)
        bloom.add_many(range(100))
        false_positives = sum(1 for value in range(1000, 2000) if value in bloom)
        assert false_positives < 50

    def test_item_count_tracks_insertions(self):
        bloom = BloomFilter(128, 2)
        bloom.add_many(["a", "b", "a"])
        assert bloom.item_count == 3

    def test_empty_filter_contains_nothing(self):
        bloom = BloomFilter(128, 2)
        assert "missing" not in bloom

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BloomFilter(0, 3)
        with pytest.raises(ValueError):
            BloomFilter(8, 0)


class TestIntrospection:
    def test_fill_ratio_grows(self):
        bloom = BloomFilter(256, 3)
        before = bloom.fill_ratio()
        bloom.add_many(range(20))
        assert bloom.fill_ratio() > before

    def test_estimated_false_positive_rate_grows(self):
        bloom = BloomFilter(256, 3)
        empty_rate = bloom.estimated_false_positive_rate()
        bloom.add_many(range(50))
        assert bloom.estimated_false_positive_rate() > empty_rate

    def test_repr_mentions_parameters(self):
        assert "m=64" in repr(BloomFilter(64, 2))

    def test_repr_reports_items_and_fill(self):
        bloom = BloomFilter(64, 2)
        bloom.add("x")
        assert "items=1" in repr(bloom)
        assert f"fill={bloom.fill_ratio():.3f}" in repr(bloom)

    def test_membership_reads_the_hash_family_positions(self):
        bloom = BloomFilter(256, 3, seed=2)
        # ``bits`` is the live array: setting an item's positions by hand
        # makes it a member without an insertion being counted.
        bloom.bits.set_many(bloom.hash_family.positions("hand-set"))
        assert "hand-set" in bloom
        assert bloom.item_count == 0
        assert bloom.revision == 0


class TestStateAndEquality:
    def test_from_state_rebuilds_an_equal_filter(self):
        bloom = BloomFilter(300, 3, seed=7)
        bloom.add_many(range(25))
        rebuilt = BloomFilter.from_state(300, 3, 7, bloom.bits.to_bytes(), bloom.item_count)
        assert rebuilt == bloom
        assert all(value in rebuilt for value in range(25))

    def test_from_state_refuses_set_padding_bits(self):
        # 300 bits leave 4 padding bits in the last byte; a set one would
        # count towards the fill ratio without being a filter bit.
        bits = bytearray(BloomFilter(300, 3).bits.to_bytes())
        bits[-1] |= 0x10
        with pytest.raises(ValueError, match="padding"):
            BloomFilter.from_state(300, 3, 7, bytes(bits), 0)

    def test_equality_compares_seed_item_count_and_bits(self):
        def build(seed=1, items=("a", "b")):
            bloom = BloomFilter(128, 3, seed=seed)
            bloom.add_many(items)
            return bloom

        assert build() == build()
        assert build() != build(seed=2)
        assert build() != build(items=("a", "b", "a"))  # same bits, one more insertion
        assert build() != build(items=("a", "c"))

    def test_equality_with_another_type_is_not_implemented(self):
        assert BloomFilter(64, 2).__eq__(object()) is NotImplemented
        assert BloomFilter(64, 2) != "BloomFilter(m=64, k=2)"

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(BloomFilter(64, 2))

    def test_revision_counts_insertion_calls(self):
        bloom = BloomFilter(128, 2)
        bloom.add("a")
        bloom.add_many(["b", "c", "d"])
        assert bloom.revision == 2
        assert bloom.item_count == 4

    def test_add_many_matches_repeated_add(self):
        items = [f"user-{i}" for i in range(40)] + [3, (1, 2)]
        batched = BloomFilter(1024, 4, seed=5)
        batched.add_many(items)
        scalar = BloomFilter(1024, 4, seed=5)
        for item in items:
            scalar.add(item)
        assert batched == scalar


class TestUnion:
    def test_union_contains_both_sets(self):
        a = BloomFilter(512, 3, seed=9)
        b = BloomFilter(512, 3, seed=9)
        a.add_many(range(10))
        b.add_many(range(10, 20))
        merged = a.union(b)
        assert all(value in merged for value in range(20))
        assert merged.item_count == 20

    def test_union_requires_same_parameters(self):
        with pytest.raises(ValueError):
            BloomFilter(512, 3).union(BloomFilter(256, 3))
        with pytest.raises(ValueError):
            BloomFilter(512, 3, seed=1).union(BloomFilter(512, 3, seed=2))

    def test_union_rejects_other_types(self):
        with pytest.raises(TypeError):
            BloomFilter(64, 2).union(object())

    def test_union_leaves_operands_unchanged(self):
        a = BloomFilter(256, 3, seed=4)
        b = BloomFilter(256, 3, seed=4)
        a.add_many(range(5))
        b.add_many(range(5, 10))
        a_bytes, b_bytes = a.bits.to_bytes(), b.bits.to_bytes()
        merged = a.union(b)
        assert merged.bits == a.bits | b.bits
        assert (a.bits.to_bytes(), b.bits.to_bytes()) == (a_bytes, b_bytes)
        assert (a.item_count, b.item_count) == (5, 5)


def random_items(rng: random.Random, count: int) -> list[object]:
    """Items of every kind the filters hash: ints, strings, tuples, bytes."""
    kinds = (
        lambda: rng.randrange(10**6),
        lambda: f"user-{rng.randrange(1000)}",
        lambda: (rng.randrange(48), rng.randrange(500)),
        lambda: bytes([rng.randrange(256)]),
    )
    return [rng.choice(kinds)() for _ in range(count)]


class TestBatchedPaths:
    @pytest.mark.parametrize("trial", range(5))
    def test_batched_and_scalar_probes_agree(self, trial):
        # contains_many reads HashFamily.indices_batch (vectorized with
        # NumPy), contains the scalar positions of each item.
        rng = random.Random(40 + trial)
        inserted = random_items(rng, 150)
        probes = inserted + random_items(rng, 150)
        bloom = BloomFilter(bit_count=2048, hash_count=4, seed=trial)
        bloom.add_many(inserted)
        assert bloom.contains_many(probes) == [item in bloom for item in probes]
        assert all(bloom.contains_many(inserted))
