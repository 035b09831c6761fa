"""The WBF body writer against the per-(bit, weight) reference it replaced.

The codec writes a filter's weight table and per-bit index lists in one pass
over the filter's *distinct* weight sets.  The reference below is the
straightforward writer: it encodes every weight at every set bit and builds
each bit's index list from scratch.  Both must emit the same bytes for every
filter, including the corner the one-pass writer has to reproduce on
purpose: equal weights of different types (``1``, ``True``,
``Fraction(1)``) on different bits share one table entry, spelled as the
weight on the highest such bit.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import wire
from repro.bloom.backend import available_backends, iter_set_bits_in_bytes
from repro.core.wbf import WeightedBloomFilter
from repro.wire.codec import _write_wbf_body
from repro.wire.primitives import write_svarint, write_uvarint
from repro.wire.values import encode_value

BACKENDS = available_backends()


def reference_wbf_body(out: bytearray, wbf: WeightedBloomFilter) -> None:
    """The per-(bit, weight) writer: one ``encode_value`` per attached weight."""
    write_uvarint(out, wbf.bit_count)
    write_uvarint(out, wbf.hash_count)
    write_svarint(out, wbf.seed)
    write_uvarint(out, wbf.item_count)
    bits = wbf._bits.to_bytes()
    out += bits
    entries = wbf.weight_entries()
    if [position for position, _ in entries] != list(
        iter_set_bits_in_bytes(bits, wbf.bit_count)
    ):
        raise ValueError("WBF weight map is inconsistent with its bit array")
    encoded_by_weight = {
        weight: encode_value(weight) for _, weights in entries for weight in weights
    }
    encoded_weights = sorted(set(encoded_by_weight.values()))
    table_index = {data: index for index, data in enumerate(encoded_weights)}
    write_uvarint(out, len(encoded_weights))
    for data in encoded_weights:
        out += data
    for _position, weights in entries:
        indices = sorted(table_index[encoded_by_weight[weight]] for weight in weights)
        write_uvarint(out, len(indices))
        for index in indices:
            write_uvarint(out, index)


# Small value ranges on purpose: ints, bools and whole fractions collide as
# equal weights of different types, and few bits make positions carry
# several weights.
fractions = st.fractions(min_value=-2, max_value=2, max_denominator=3)
weights = st.one_of(
    fractions,
    st.tuples(st.sampled_from(["q0", "q1", "q2"]), st.one_of(fractions, st.integers(0, 2))),
    st.integers(-2, 2),
    st.booleans(),
    st.sampled_from(["a", "b", "weight"]),
)
items = st.one_of(st.integers(0, 200), st.text(alphabet="xyz", max_size=3))
filters = st.tuples(
    st.integers(4, 96),  # bit_count
    st.integers(1, 4),  # hash_count
    st.integers(0, 50),  # seed
    st.lists(st.tuples(items, weights), min_size=1, max_size=40),  # insertions
    st.lists(st.tuples(items, weights), max_size=6),  # insertions after decode
)


def build(bit_count, hash_count, seed, insertions, backend):
    wbf = WeightedBloomFilter(bit_count, hash_count, seed=seed, backend=backend)
    for item, weight in insertions:
        wbf.add(item, weight)
    return wbf


def bodies(wbf: WeightedBloomFilter) -> tuple[bytes, bytes]:
    got, want = bytearray(), bytearray()
    _write_wbf_body(got, wbf)
    reference_wbf_body(want, wbf)
    return bytes(got), bytes(want)


class TestWbfBodyMatchesTheReference:
    @given(params=filters)
    @settings(max_examples=150, deadline=None)
    # 1 on one bit and Fraction(1) on another: one table entry, the highest
    # bit's spelling.
    @example(params=(8, 1, 0, [(0, 1), (1, Fraction(1)), (2, True)], []))
    @example(params=(8, 1, 0, [(2, True), (1, Fraction(1)), (0, 1)], []))
    @example(params=(16, 2, 3, [(5, ("q0", 1)), (9, ("q0", Fraction(1)))], [(5, 2)]))
    def test_inserted_and_decoded_filters_on_every_backend(self, params):
        bit_count, hash_count, seed, insertions, later = params
        for backend in BACKENDS:
            wbf = build(bit_count, hash_count, seed, insertions, backend)
            got, want = bodies(wbf)
            assert got == want
            # Decoded off the wire: positions share one frozenset per
            # distinct weight set.
            decoded = wire.decode(wire.encode(wbf), backend=backend)
            got, want = bodies(decoded)
            assert got == want
            # Insertions after decode mix shared frozensets with private sets.
            for item, weight in later:
                decoded.add(item, weight)
            got, want = bodies(decoded)
            assert got == want

    def test_the_highest_bit_spells_a_shared_table_entry(self):
        wbf = WeightedBloomFilter(64, 1, seed=0, backend="python")
        wbf.add("low", 1)
        wbf.add("high", Fraction(1))
        positions = [position for position, _ in wbf.weight_entries()]
        assert len(positions) == 2
        got, want = bodies(wbf)
        assert got == want
        table = wire.decode(wire.encode(wbf)).distinct_weights()
        assert len(table) == 1
        (weight,) = table
        highest = max(
            ("low", "high"), key=lambda item: wbf.hash_family.positions(item)[0]
        )
        assert type(weight) is (Fraction if highest == "high" else int)

    def test_a_bit_without_weights_is_still_refused(self):
        wbf = WeightedBloomFilter(32, 2, seed=1, backend="python")
        wbf.add("x", Fraction(1, 2))
        wbf._bits.set(next(p for p in range(32) if p not in wbf._weights))
        for writer in (_write_wbf_body, reference_wbf_body):
            with pytest.raises(ValueError, match="inconsistent"):
                writer(bytearray(), wbf)
