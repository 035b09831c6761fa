"""Unit tests for repro.utils.validation."""

import enum

import pytest

from repro.utils.validation import (
    require_all_integers,
    require_in_range,
    require_non_empty,
    require_non_negative,
    require_positive,
    require_probability,
    require_type,
)

try:
    import numpy
except ImportError:  # the no-NumPy leg runs this file too
    numpy = None


class TestRequirePositive:
    def test_accepts_positive_int(self):
        assert require_positive(3, "x") == 3

    def test_accepts_positive_float(self):
        assert require_positive(0.5, "x") == 0.5

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            require_positive(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            require_positive(-1, "x")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            require_positive(True, "x")

    def test_rejects_string(self):
        with pytest.raises(TypeError, match="x must be a number"):
            require_positive("3", "x")


class TestRequireNonNegative:
    def test_accepts_zero(self):
        assert require_non_negative(0, "x") == 0

    def test_accepts_positive(self):
        assert require_non_negative(7.5, "x") == 7.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="x must be >= 0"):
            require_non_negative(-0.1, "x")

    def test_rejects_non_number(self):
        with pytest.raises(TypeError):
            require_non_negative(None, "x")


class TestRequireProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_valid(self, value):
        assert require_probability(value, "p") == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, 5])
    def test_rejects_out_of_range(self, value):
        with pytest.raises(ValueError):
            require_probability(value, "p")

    def test_returns_float(self):
        assert isinstance(require_probability(1, "p"), float)


class TestRequireInRange:
    def test_accepts_bounds(self):
        assert require_in_range(1, "x", 1, 5) == 1
        assert require_in_range(5, "x", 1, 5) == 5

    def test_rejects_outside(self):
        with pytest.raises(ValueError, match=r"\[1, 5\]"):
            require_in_range(6, "x", 1, 5)

    def test_rejects_non_number(self):
        with pytest.raises(TypeError):
            require_in_range("a", "x", 0, 1)


class TestRequireNonEmpty:
    def test_accepts_non_empty_list(self):
        assert require_non_empty([1], "items") == [1]

    def test_accepts_non_empty_dict(self):
        assert require_non_empty({"a": 1}, "items") == {"a": 1}

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="items must not be empty"):
            require_non_empty([], "items")


class TestRequireType:
    def test_accepts_matching_type(self):
        assert require_type(3, "x", int) == 3

    def test_accepts_tuple_of_types(self):
        assert require_type(3.5, "x", (int, float)) == 3.5

    def test_rejects_wrong_type(self):
        with pytest.raises(TypeError, match="x must be int"):
            require_type("3", "x", int)


class TestRequireAllIntegers:
    def test_accepts_integer_list(self):
        assert require_all_integers([1, 2, 3], "values") == [1, 2, 3]

    def test_rejects_float(self):
        with pytest.raises(TypeError, match=r"values\[1\]"):
            require_all_integers([1, 2.5, 3], "values")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            require_all_integers([1, True], "values")

    def test_empty_list_allowed(self):
        assert require_all_integers([], "values") == []

    @pytest.mark.parametrize("index", [0, 2, 4])
    @pytest.mark.parametrize(
        "bad, type_name",
        [(True, "bool"), (1.5, "float"), ("3", "str"), (None, "NoneType")]
        + ([(numpy.int64(3), "int64")] if numpy is not None else []),
    )
    def test_rejection_names_the_offending_index(self, bad, type_name, index):
        values = [1, 2, 3, 4, 5]
        values[index] = bad
        with pytest.raises(TypeError) as info:
            require_all_integers(values, "values")
        assert str(info.value) == (
            f"values[{index}] must be an integer, got {type_name}: {bad!r}"
        )

    def test_int_subclasses_are_accepted_as_plain_ints(self):
        class Level(enum.IntEnum):
            HIGH = 7

        out = require_all_integers((1, Level.HIGH, 3), "values")
        assert out == [1, 7, 3]
        assert [type(value) for value in out] == [int, int, int]
