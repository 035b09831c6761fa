"""Microbenchmarks of the Bloom-filter substrate.

Not tied to a specific paper figure; provides throughput baselines for the data
structures everything else is built on.  Every benchmark exercises the
batched insertion/probe paths the encoder and station matcher use on the one
bit store, so its regressions show up here first.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_bloom_substrate.py
"""

from fractions import Fraction

from repro.bloom.standard import BloomFilter
from repro.core.wbf import WeightedBloomFilter

ITEM_COUNT = 2000


def test_bloom_filter_insert_throughput(benchmark):
    def insert_items():
        bloom = BloomFilter(bit_count=ITEM_COUNT * 10, hash_count=4)
        bloom.add_many(range(ITEM_COUNT))
        return bloom

    bloom = benchmark(insert_items)
    assert bloom.item_count == ITEM_COUNT


def test_bloom_filter_query_throughput(benchmark):
    bloom = BloomFilter(bit_count=ITEM_COUNT * 10, hash_count=4)
    bloom.add_many(range(ITEM_COUNT))

    def probe_items():
        return sum(bloom.contains_many(range(ITEM_COUNT)))

    hits = benchmark(probe_items)
    assert hits == ITEM_COUNT


def test_weighted_bloom_filter_insert_throughput(benchmark):
    weight = Fraction(1, 3)

    def insert_items():
        wbf = WeightedBloomFilter(bit_count=ITEM_COUNT * 12, hash_count=4)
        wbf.insert_many(range(ITEM_COUNT), weight)
        return wbf

    wbf = benchmark(insert_items)
    assert wbf.item_count == ITEM_COUNT


def test_bit_array_union_and_popcount_throughput(benchmark):
    """Pure bit-substrate ops (no hashing)."""
    from repro.bloom.bitset import BitArray

    bits_a = BitArray.from_indices(ITEM_COUNT * 64, range(0, ITEM_COUNT * 64, 3))
    bits_b = BitArray.from_indices(ITEM_COUNT * 64, range(1, ITEM_COUNT * 64, 5))

    def union_count():
        return (bits_a | bits_b).count()

    set_bits = benchmark(union_count)
    assert set_bits == sum(1 for i in range(ITEM_COUNT * 64) if i % 3 == 0 or i % 5 == 1)


def test_weighted_bloom_filter_weighted_query_throughput(benchmark):
    weight = Fraction(1, 3)
    wbf = WeightedBloomFilter(bit_count=ITEM_COUNT * 12, hash_count=4)
    wbf.insert_many(range(ITEM_COUNT), weight)

    def probe_items():
        return sum(1 for weights in wbf.query_many(range(ITEM_COUNT)) if weight in weights)

    hits = benchmark(probe_items)
    assert hits == ITEM_COUNT
