"""Unit tests for the hash family."""

import pytest

from repro.bloom.hashing import HashFamily, canonical_item_bytes


class TestCanonicalItemBytes:
    def test_int_and_string_differ(self):
        assert canonical_item_bytes(1) != canonical_item_bytes("1")

    def test_bool_and_int_differ(self):
        assert canonical_item_bytes(True) != canonical_item_bytes(1)

    def test_tuple_encoding_is_structural(self):
        assert canonical_item_bytes((1, 2)) != canonical_item_bytes((2, 1))
        assert canonical_item_bytes((1, 2)) == canonical_item_bytes((1, 2))

    def test_nested_tuples(self):
        assert canonical_item_bytes(((1,), 2)) != canonical_item_bytes((1, (2,)))

    def test_float_encoding(self):
        assert canonical_item_bytes(1.5) == canonical_item_bytes(1.5)

    def test_bytes_passthrough(self):
        assert canonical_item_bytes(b"xy").endswith(b"xy")

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_item_bytes({"a": 1})

    @pytest.mark.parametrize(
        "item, expected_hex",
        [
            ((3, 17), "740000000200000002693300000003693137"),
            ((0, -5), "740000000200000002693000000003692d35"),
            (
                (7, 2**64 + 1),
                "740000000200000002693700000015693138343436373434303733373039353531363137",
            ),
            # bool parts keep their own tag; nested tuples recurse.
            ((True, 1), "7400000002000000026201000000026931"),
            (((1,), 2), "74000000020000000b7400000001000000026931000000026932"),
        ],
    )
    def test_tuple_encoding_is_pinned(self, item, expected_hex):
        assert canonical_item_bytes(item).hex() == expected_hex


class TestHashFamily:
    def test_positions_in_range(self):
        family = HashFamily(hash_count=5, value_range=97)
        for item in [0, 1, "abc", (3, 4)]:
            positions = family.positions(item)
            assert len(positions) == 5
            assert all(0 <= p < 97 for p in positions)

    def test_deterministic(self):
        family = HashFamily(4, 1024, seed=3)
        assert family.positions("x") == family.positions("x")

    def test_seed_changes_positions(self):
        a = HashFamily(4, 1024, seed=0)
        b = HashFamily(4, 1024, seed=1)
        assert a.positions("x") != b.positions("x")

    def test_different_items_mostly_differ(self):
        family = HashFamily(4, 1 << 20)
        assert family.positions("a") != family.positions("b")

    def test_positions_many(self):
        family = HashFamily(2, 64)
        results = family.positions_many(["a", "b"])
        assert len(results) == 2
        assert results[0] == family.positions("a")

    def test_with_range_preserves_k_and_seed(self):
        family = HashFamily(3, 64, seed=7)
        resized = family.with_range(128)
        assert resized.hash_count == 3
        assert resized.seed == 7
        assert resized.value_range == 128

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            HashFamily(0, 10)
        with pytest.raises(ValueError):
            HashFamily(1, 0)

    def test_properties(self):
        family = HashFamily(3, 50, seed=2)
        assert family.hash_count == 3
        assert family.value_range == 50
        assert family.seed == 2

    def test_repr(self):
        assert "hash_count=3" in repr(HashFamily(3, 50))

    @pytest.mark.parametrize(
        "seed, item, expected",
        [
            (0, (0, 0), [740, 949, 158, 367]),
            (0, (23, 42), [413, 394, 375, 356]),
            (0, 5, [607, 788, 353, 534]),
            (0, "u0000001", [195, 782, 753, 724]),
            (0, (True, 1), [652, 339, 26, 713]),
            (7, (23, 42), [817, 0, 183, 366]),
            (7, (7, 2**64 + 1), [12, 243, 474, 705]),
            (7, -9, [744, 395, 430, 81]),
            (2**40 + 3, (0, 0), [563, 264, 965, 666]),
            (2**40 + 3, ((1,), 2), [630, 227, 824, 805]),
        ],
    )
    def test_positions_are_pinned(self, seed, item, expected):
        family = HashFamily(4, 1000, seed=seed)
        assert family.positions(item) == expected
        assert family.indices_batch([item] * 5) == [expected] * 5
