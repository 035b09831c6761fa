"""Property tests: the WBF's position-table probe equals per-query set probing.

The station matcher ANDs the position table's entries (each set bit's
weight mask from the mask index, 0 for a clear bit) across all sampled
positions and reads the result back through
:meth:`WeightedBloomFilter.weights_of_mask`; these properties pin that to
the reference semantics — per-position :meth:`query_weights_at`
intersection — including across mutations (the table is revision-keyed)
and across a wire round-trip (decoded filters share interned frozensets).
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import wire
from repro.core.wbf import WeightedBloomFilter

weights_strategy = st.tuples(
    st.sampled_from(["q1", "q2", "q3"]),
    # Bounded denominators keep every weight inside the wire's 64-bit range.
    st.fractions(min_value=0, max_value=1, max_denominator=1000),
)
entries_strategy = st.lists(
    st.tuples(st.integers(0, 400), weights_strategy), min_size=1, max_size=40
)


def reference_intersection(wbf: WeightedBloomFilter, rows) -> frozenset:
    """Per-row set-intersection semantics the matcher used before the mask index."""
    common = None
    for row in rows:
        weights = wbf.query_weights_at(row)
        if not weights:
            return frozenset()
        common = set(weights) if common is None else (common & weights)
        if not common:
            return frozenset()
    return frozenset(common) if common else frozenset()


def table_weights(wbf: WeightedBloomFilter, positions) -> frozenset:
    """The position-table probe: AND every position's entry, read the mask back."""
    table = wbf.position_masks()
    mask = -1 if positions else 0
    for position in positions:
        mask &= table[position]
    return wbf.weights_of_mask(mask)


class TestMaskProbeEquivalence:
    @given(entries=entries_strategy, probes=st.lists(st.integers(0, 400), max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_row_intersection(self, entries, probes):
        wbf = WeightedBloomFilter(1024, 4)
        for item, weight in entries:
            wbf.add(item, weight)
        rows = [wbf.hash_family.positions(item) for item in probes]
        flat = [position for row in rows for position in row]
        assert table_weights(wbf, flat) == reference_intersection(wbf, rows)

    @given(entries=entries_strategy)
    @settings(max_examples=60, deadline=None)
    def test_inserted_items_stay_consistent(self, entries):
        wbf = WeightedBloomFilter(1024, 4)
        for item, weight in entries:
            wbf.add(item, weight)
        for item, weight in entries:
            positions = wbf.hash_family.positions(item)
            assert weight in table_weights(wbf, positions)

    @given(entries=entries_strategy, extra=st.tuples(st.integers(0, 400), weights_strategy))
    @settings(max_examples=40, deadline=None)
    def test_mutation_invalidates_index(self, entries, extra):
        wbf = WeightedBloomFilter(1024, 4)
        for item, weight in entries:
            wbf.add(item, weight)
        # Build the table, then mutate, then re-probe: results must follow the
        # mutation (the table is keyed on the filter's revision counter).
        first_item = entries[0][0]
        table_weights(wbf, wbf.hash_family.positions(first_item))
        extra_item, extra_weight = extra
        wbf.add(extra_item, extra_weight)
        for item in [item for item, _ in entries] + [extra_item]:
            row = wbf.hash_family.positions(item)
            assert table_weights(wbf, row) == reference_intersection(wbf, [row])

    @given(entries=entries_strategy)
    @settings(max_examples=40, deadline=None)
    def test_wire_round_trip_preserves_probe(self, entries):
        wbf = WeightedBloomFilter(1024, 4)
        for item, weight in entries:
            wbf.add(item, weight)
        decoded = wire.decode(wire.encode(wbf))
        for item, _ in entries:
            positions = wbf.hash_family.positions(item)
            assert table_weights(decoded, positions) == table_weights(wbf, positions)

    @given(entries=entries_strategy, extra=st.tuples(st.integers(0, 400), weights_strategy))
    @settings(max_examples=40, deadline=None)
    def test_decoded_filter_copy_on_write(self, entries, extra):
        # Decoded filters share interned frozensets across positions; inserting
        # must only affect the touched positions (copy-on-write), never a
        # position that merely shared the object.
        wbf = WeightedBloomFilter(1024, 4)
        for item, weight in entries:
            wbf.add(item, weight)
        decoded = wire.decode(wire.encode(wbf))
        extra_item, extra_weight = extra
        decoded.add(extra_item, extra_weight)
        mirror = WeightedBloomFilter(1024, 4)
        for item, weight in entries:
            mirror.add(item, weight)
        mirror.add(extra_item, extra_weight)
        assert decoded == mirror
