"""Backend-equivalence suite for the pluggable bit substrate.

Property-style tests over randomized inserts asserting that every available
backend produces identical bits, counts, unions, serializations and query
verdicts.  The suite is the contract that makes ``bit_backend`` a pure
throughput knob: center and stations may disagree on it and still interoperate.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro import wire
from repro.bloom.backend import (
    BACKEND_CHOICES,
    HAS_NUMPY,
    BackendUnavailableError,
    BytearrayBackend,
    available_backends,
    make_backend,
    resolve_backend_class,
)
from repro.bloom.bitset import BitArray
from repro.bloom.standard import BloomFilter
from repro.core.wbf import WeightedBloomFilter

BACKENDS = available_backends()
LENGTHS = (1, 7, 64, 65, 1000)


def random_items(rng: random.Random, count: int) -> list[object]:
    items: list[object] = []
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == 0:
            items.append(rng.randrange(10**6))
        elif kind == 1:
            items.append(f"user-{rng.randrange(1000)}")
        elif kind == 2:
            items.append((rng.randrange(48), rng.randrange(500)))
        else:
            items.append(bytes([rng.randrange(256)]))
    return items


class TestBackendSelection:
    def test_available_backends_always_include_python(self):
        assert "python" in BACKENDS

    def test_auto_resolves_to_an_available_backend(self):
        cls = resolve_backend_class("auto")
        assert cls(8).name in BACKENDS

    def test_explicit_python_backend(self):
        assert resolve_backend_class("python") is BytearrayBackend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown bit backend"):
            resolve_backend_class("bitarray")

    @pytest.mark.skipif(HAS_NUMPY, reason="only meaningful without NumPy")
    def test_numpy_backend_unavailable_raises(self):
        with pytest.raises(BackendUnavailableError):
            resolve_backend_class("numpy")

    def test_backend_choices_cover_config_values(self):
        assert set(BACKEND_CHOICES) == {"auto", "python", "numpy"}

    def test_make_backend_passthrough_checks_length(self):
        backend = make_backend(64, "python")
        assert make_backend(64, backend) is backend
        with pytest.raises(ValueError, match="64 bits"):
            make_backend(128, backend)


@pytest.mark.parametrize("backend", BACKENDS)
class TestSingleBackendBehaviour:
    def test_set_get_clear_roundtrip(self, backend):
        rng = random.Random(101)
        bits = BitArray(257, backend=backend)
        chosen = sorted(rng.sample(range(257), 40))
        for index in chosen:
            assert bits.set(index) is True
            assert bits.set(index) is False
        assert [i for i in range(257) if bits.get(i)] == chosen
        assert bits.count() == len(chosen)
        for index in chosen[::2]:
            bits.clear(index)
        assert bits.count() == len(chosen) - len(chosen[::2])

    def test_out_of_range_indices_rejected(self, backend):
        bits = BitArray(32, backend=backend)
        with pytest.raises(IndexError):
            bits.get(32)
        with pytest.raises(IndexError):
            bits.set(-1)
        with pytest.raises(IndexError):
            bits.set_many([0, 5, 32])

    def test_set_many_matches_scalar_sets(self, backend):
        rng = random.Random(7)
        indices = [rng.randrange(500) for _ in range(200)]
        batched = BitArray(500, backend=backend)
        batched.set_many(indices)
        scalar = BitArray(500, backend=backend)
        for index in indices:
            scalar.set(index)
        assert batched == scalar
        assert batched.get_many(indices) == [True] * len(indices)

    def test_all_set_rows(self, backend):
        bits = BitArray(100, backend=backend)
        bits.set_many([1, 2, 3, 10, 11])
        assert bits.all_set_rows([[1, 2, 3], [1, 10, 11], [1, 2, 4]]) == [
            True,
            True,
            False,
        ]
        assert bits.all_set_rows([]) == []

    def test_all_set_rows_ragged_rows(self, backend):
        bits = BitArray(100, backend=backend)
        bits.set_many([1, 2, 3])
        # Ragged rows can't be vectorized as a matrix; every backend must still
        # answer them (generic fallback) with identical verdicts.
        assert bits.all_set_rows([[1, 2], [3], [1, 4, 2]]) == [True, True, False]

    def test_iter_set_bits_and_size(self, backend):
        bits = BitArray(77, backend=backend)
        bits.set_many([0, 8, 63, 64, 76])
        assert list(bits.iter_set_bits()) == [0, 8, 63, 64, 76]
        assert len(bits.to_bytes()) == 10  # ceil(77 / 8), identical on every backend


@pytest.mark.parametrize("length", LENGTHS)
def test_backends_produce_identical_bits(length):
    rng = random.Random(length)
    indices = [rng.randrange(length) for _ in range(max(1, length // 2))]
    arrays = {name: BitArray(length, backend=name) for name in BACKENDS}
    for bits in arrays.values():
        bits.set_many(indices)
    reference = arrays["python"]
    for name, bits in arrays.items():
        assert bits.to_bytes() == reference.to_bytes(), name
        assert bits.count() == reference.count(), name
        assert bits == reference, name


@pytest.mark.parametrize("length", LENGTHS)
def test_union_and_intersection_agree_across_backends(length):
    rng = random.Random(1000 + length)
    left = [rng.randrange(length) for _ in range(max(1, length // 3))]
    right = [rng.randrange(length) for _ in range(max(1, length // 3))]
    results = {}
    for name in BACKENDS:
        a = BitArray.from_indices(length, left, backend=name)
        b = BitArray.from_indices(length, right, backend=name)
        results[name] = ((a | b).to_bytes(), (a & b).to_bytes(), (a | b).count())
    reference = results["python"]
    for name, result in results.items():
        assert result == reference, name


@pytest.mark.skipif(len(BACKENDS) < 2, reason="needs both backends")
def test_cross_backend_union_and_equality():
    numpy_bits = BitArray.from_indices(200, [1, 50, 199], backend="numpy")
    python_bits = BitArray.from_indices(200, [1, 64, 128], backend="python")
    assert numpy_bits != python_bits
    union = numpy_bits | python_bits
    assert sorted(union.iter_set_bits()) == [1, 50, 64, 128, 199]
    assert BitArray.from_indices(200, [1, 50, 199], backend="python") == numpy_bits


@pytest.mark.skipif(not HAS_NUMPY, reason="needs NumPy")
def test_numpy_row_test_keeps_the_bounds_check():
    bits = BitArray(32, backend="numpy")
    bits.set_many([0, 31])
    assert bits.all_set_rows([[0, 31], [31, 0]]) == [True, True]
    with pytest.raises(IndexError):
        bits.all_set_rows([[0, 32]])
    with pytest.raises(IndexError):
        bits.all_set_rows([[-1, 0]])
    # An index past int32 range is reported, never wrapped into range.
    with pytest.raises(IndexError):
        bits.all_set_rows([[0, 2**32]])


@pytest.mark.parametrize("trial", range(5))
def test_bloom_filters_equivalent_across_backends(trial):
    rng = random.Random(40 + trial)
    inserted = random_items(rng, 150)
    probes = inserted + random_items(rng, 150)
    filters = {
        name: BloomFilter(bit_count=2048, hash_count=4, seed=trial, backend=name)
        for name in BACKENDS
    }
    for bloom in filters.values():
        bloom.add_many(inserted)
    reference = filters["python"]
    for name, bloom in filters.items():
        assert bloom.bits.to_bytes() == reference.bits.to_bytes(), name
        assert bloom.fill_ratio() == reference.fill_ratio(), name
        assert bloom.contains_many(probes) == reference.contains_many(probes), name
        # scalar and batched probes agree on every backend
        assert bloom.contains_many(probes) == [item in bloom for item in probes], name


@pytest.mark.parametrize("trial", range(5))
def test_weighted_bloom_filters_equivalent_across_backends(trial):
    rng = random.Random(70 + trial)
    groups = {
        ("q1", Fraction(1, 3)): random_items(rng, 60),
        ("q1", Fraction(2, 3)): random_items(rng, 60),
        ("q2", Fraction(1, 2)): random_items(rng, 60),
    }
    probes = [item for items in groups.values() for item in items] + random_items(rng, 100)
    filters = {
        name: WeightedBloomFilter(bit_count=4096, hash_count=4, seed=trial, backend=name)
        for name in BACKENDS
    }
    for wbf in filters.values():
        for weight, items in groups.items():
            wbf.insert_many(items, weight)
    reference = filters["python"]
    for name, wbf in filters.items():
        assert wbf.item_count == reference.item_count, name
        assert wbf.fill_ratio() == reference.fill_ratio(), name
        assert wbf.distinct_weights() == reference.distinct_weights(), name
        assert wire.encode(wbf) == wire.encode(reference), name
        assert wbf.query_many(probes) == reference.query_many(probes), name
        # batched and scalar weighted queries agree on every backend
        assert wbf.query_many(probes) == [wbf.query_weights(item) for item in probes], name


def test_insert_many_matches_scalar_add():
    rng = random.Random(5)
    items = random_items(rng, 120)
    weight = ("q", Fraction(1, 4))
    for name in BACKENDS:
        batched = WeightedBloomFilter(bit_count=2048, hash_count=4, backend=name)
        batched.insert_many(items, weight)
        scalar = WeightedBloomFilter(bit_count=2048, hash_count=4, backend=name)
        for item in items:
            scalar.add(item, weight)
        assert batched.item_count == scalar.item_count
        assert batched.query_many(items) == scalar.query_many(items)
        assert wire.encode(batched) == wire.encode(scalar)
