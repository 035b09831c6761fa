"""The one bit store against a plain set of indices.

Every filter keeps its bits in a :class:`~repro.bloom.bitset.BitArray`, one
``bytearray`` with bit ``i`` at byte ``i >> 3``, position ``i & 7``.  Each
property below drives it with random operations and checks every reading
against a model: the set of indices that are set.  The canonical bytes of
the model are ``sum(1 << i).to_bytes(..., "little")``.  The lengths straddle
the byte and 64-bit word boundaries.

Nothing here imports NumPy.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom.bitset import BitArray

LENGTHS = (1, 7, 8, 63, 64, 65, 1000)

lengths = pytest.mark.parametrize("length", LENGTHS)


def model_bytes(model: set[int], length: int) -> bytes:
    return sum(1 << index for index in model).to_bytes((length + 7) // 8, "little")


def indices(length: int):
    return st.integers(0, length - 1)


def operations(length: int):
    index = indices(length)
    return st.lists(
        st.one_of(
            st.tuples(st.just("set"), index),
            st.tuples(st.just("clear"), index),
            st.tuples(st.just("set_many"), st.lists(index, max_size=12)),
        ),
        max_size=40,
    )


@lengths
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_operations_match_the_model(length, data):
    bits, model = BitArray(length), set()
    for operation, argument in data.draw(operations(length)):
        if operation == "set":
            assert bits.set(argument) is (argument not in model)
            model.add(argument)
        elif operation == "clear":
            bits.clear(argument)
            model.discard(argument)
        else:
            bits.set_many(argument)
            model.update(argument)
    probes = data.draw(st.lists(indices(length), max_size=20))
    # Ragged rows, the empty row included: a row passes iff all its bits are set.
    rows = data.draw(st.lists(st.lists(indices(length), max_size=5), max_size=10))
    assert len(bits) == length
    assert [bits.get(index) for index in range(length)] == [
        index in model for index in range(length)
    ]
    assert bits.get_many(probes) == [index in model for index in probes]
    assert bits.all_set_rows(rows) == [all(index in model for index in row) for row in rows]
    assert bits.count() == len(model)
    assert list(bits.iter_set_bits()) == sorted(model)
    assert bits.to_bytes() == model_bytes(model, length)


@lengths
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_union_and_intersection_match_set_algebra(length, data):
    left = data.draw(st.sets(indices(length), max_size=40))
    right = data.draw(st.sets(indices(length), max_size=40))
    a, b = BitArray.from_indices(length, left), BitArray.from_indices(length, right)
    union, intersection = a | b, a & b
    assert list(union.iter_set_bits()) == sorted(left | right)
    assert list(intersection.iter_set_bits()) == sorted(left & right)
    assert union.to_bytes() == model_bytes(left | right, length)
    assert intersection.to_bytes() == model_bytes(left & right, length)
    assert union.count() == len(left | right)
    # Both operands are left as they were.
    assert (a.to_bytes(), b.to_bytes()) == (
        model_bytes(left, length),
        model_bytes(right, length),
    )


@lengths
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_from_bytes_round_trips(length, data):
    model = data.draw(st.sets(indices(length), max_size=40))
    rebuilt = BitArray.from_bytes(length, model_bytes(model, length))
    assert rebuilt == BitArray.from_indices(length, model)
    assert list(rebuilt.iter_set_bits()) == sorted(model)
    assert BitArray.from_bytes(length, rebuilt.to_bytes()) == rebuilt


@lengths
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_from_bytes_refuses_wrong_lengths_and_set_padding_bits(length, data):
    size = (length + 7) // 8
    wrong = data.draw(st.integers(0, size + 3).filter(lambda other: other != size))
    with pytest.raises(ValueError, match="expected"):
        BitArray.from_bytes(length, bytes(wrong))
    # A buffer of the right size is taken exactly when the bits past
    # ``length`` in its last byte are clear.
    buffer = data.draw(st.binary(min_size=size, max_size=size))
    spare = length & 7
    if spare and buffer[-1] >> spare:
        with pytest.raises(ValueError, match="padding"):
            BitArray.from_bytes(length, buffer)
    else:
        assert BitArray.from_bytes(length, buffer).to_bytes() == buffer
