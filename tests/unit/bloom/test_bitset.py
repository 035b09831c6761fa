"""Unit tests for the BitArray backing store."""

import pytest

from repro.bloom.bitset import BitArray


class TestConstruction:
    def test_starts_all_zero(self):
        bits = BitArray(64)
        assert bits.count() == 0
        assert len(bits) == 64

    def test_invalid_length_rejected(self):
        with pytest.raises(ValueError):
            BitArray(0)

    def test_non_multiple_of_eight_length(self):
        bits = BitArray(13)
        assert len(bits) == 13
        bits.set(12)
        assert bits.get(12)

    def test_from_indices(self):
        bits = BitArray.from_indices(16, [1, 3, 5])
        assert bits.count() == 3
        assert bits.get(3)
        assert not bits.get(2)


class TestBitOperations:
    def test_set_and_get(self):
        bits = BitArray(32)
        assert bits.set(7) is True
        assert bits.get(7)

    def test_set_returns_false_when_already_set(self):
        bits = BitArray(32)
        bits.set(7)
        assert bits.set(7) is False

    def test_clear(self):
        bits = BitArray(32)
        bits.set(9)
        bits.clear(9)
        assert not bits.get(9)

    def test_item_access_syntax(self):
        bits = BitArray(8)
        bits[3] = True
        assert bits[3]
        bits[3] = False
        assert not bits[3]

    def test_out_of_range_rejected(self):
        bits = BitArray(8)
        with pytest.raises(IndexError):
            bits.get(8)
        with pytest.raises(IndexError):
            bits.set(-1)

    def test_non_integer_index_rejected(self):
        bits = BitArray(8)
        with pytest.raises(TypeError):
            bits.get("3")


class TestAggregates:
    def test_count(self):
        bits = BitArray(100)
        for index in range(0, 100, 7):
            bits.set(index)
        assert bits.count() == len(range(0, 100, 7))

    def test_iter_set_bits_sorted(self):
        bits = BitArray.from_indices(64, [40, 2, 17])
        assert list(bits.iter_set_bits()) == [2, 17, 40]

    def test_union(self):
        a = BitArray.from_indices(16, [1, 2])
        b = BitArray.from_indices(16, [2, 3])
        assert sorted((a | b).iter_set_bits()) == [1, 2, 3]

    def test_intersection(self):
        a = BitArray.from_indices(16, [1, 2])
        b = BitArray.from_indices(16, [2, 3])
        assert sorted((a & b).iter_set_bits()) == [2]

    def test_union_does_not_mutate_operands(self):
        a = BitArray.from_indices(16, [1])
        b = BitArray.from_indices(16, [2])
        _ = a | b
        assert a.count() == 1 and b.count() == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BitArray(8).union(BitArray(16))

    def test_type_mismatch_rejected(self):
        with pytest.raises(TypeError):
            BitArray(8).union([1, 2])


class TestEqualityAndCopy:
    def test_copy_is_independent(self):
        a = BitArray.from_indices(16, [5])
        b = a.copy()
        b.set(6)
        assert not a.get(6)

    def test_equality(self):
        assert BitArray.from_indices(16, [5]) == BitArray.from_indices(16, [5])
        assert BitArray.from_indices(16, [5]) != BitArray.from_indices(16, [6])

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(BitArray(8))

    def test_repr_mentions_count(self):
        bits = BitArray.from_indices(8, [0, 1])
        assert "set=2" in repr(bits)


class TestSerialization:
    def test_to_bytes_length(self):
        assert len(BitArray(64).to_bytes()) == 8
        assert len(BitArray(65).to_bytes()) == 9

    def test_canonical_layout_is_least_significant_bit_first(self):
        bits = BitArray.from_indices(10, [0, 3, 9])
        assert bits.to_bytes() == bytes([0b0000_1001, 0b0000_0010])

    def test_from_bytes_round_trips(self):
        bits = BitArray.from_indices(77, [0, 8, 63, 64, 76])
        rebuilt = BitArray.from_bytes(77, bits.to_bytes())
        assert rebuilt == bits
        assert list(rebuilt.iter_set_bits()) == [0, 8, 63, 64, 76]

    def test_from_bytes_does_not_alias_its_input(self):
        data = bytearray(BitArray.from_indices(16, [2]).to_bytes())
        bits = BitArray.from_bytes(16, data)
        bits.set(5)
        assert data == bytearray([0b100, 0])

    def test_from_bytes_rejects_a_wrong_length(self):
        with pytest.raises(ValueError):
            BitArray.from_bytes(16, b"\x00")
        with pytest.raises(ValueError):
            BitArray.from_bytes(16, b"\x00\x00\x00")
