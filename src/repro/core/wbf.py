"""Weighted Bloom Filter (WBF) — the paper's novel data structure.

A WBF is a Bloom filter in which every set bit additionally carries the weights of
the values hashed onto it ("each bit with 1 ... has a pointer pointing to the weight
of corresponding hashed values", Section II-B).  Insertion attaches the inserted
value's weight to each of its ``k`` bits; a *weighted query* returns the set of
weights consistent with **all** ``k`` bits of the probed value — empty if any bit is
0, or if the bits are 1 but share no common weight (which is how the WBF suppresses
the cross-pattern false positives a plain Bloom filter accepts).

The structure is agnostic to the weight type: any hashable value can be attached.
DI-matching uses exact :class:`fractions.Fraction` weights qualified by the query
they belong to (``(query_id, Fraction)`` tuples) so that the aggregation rule of
Algorithm 3 ("delete IDs whose weight sum exceeds 1") can test equality without
floating-point tolerance and without mixing weights across unrelated query patterns.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from repro.bloom.analysis import expected_false_positive_rate
from repro.bloom.bitset import BitArray
from repro.bloom.hashing import HashFamily
from repro.utils.validation import require_positive


class WeightedBloomFilter:
    """Bloom filter whose set bits carry the weights of the values that set them.

    The bits live in a :class:`~repro.bloom.bitset.BitArray`; the weight map
    is a sparse Python dict beside it.
    """

    def __init__(self, bit_count: int, hash_count: int, seed: int = 0) -> None:
        require_positive(bit_count, "bit_count")
        require_positive(hash_count, "hash_count")
        self._bits = BitArray(bit_count)
        self._hashes = HashFamily(hash_count, bit_count, seed=seed)
        # Sparse map: bit index -> weights attached to that bit.  Values are
        # plain sets when built by insertion; filters decoded from the wire
        # hold interned frozensets shared across positions (copy-on-write: an
        # insertion replaces the frozenset with a mutable copy for that
        # position only).
        self._weights: dict[int, "set[Hashable] | frozenset"] = {}
        self._item_count = 0
        self._revision = 0
        # revision -> (weights tuple, position table list, mask->frozenset memo,
        # position table array or None); see _weight_mask_index.
        self._mask_index: tuple[int, tuple, list[int], dict[int, frozenset], object] | None = None

    # -- properties ------------------------------------------------------------

    @property
    def bit_count(self) -> int:
        """Filter length ``m`` in bits."""
        return len(self._bits)

    @property
    def hash_count(self) -> int:
        """Number of hash functions ``k``."""
        return self._hashes.hash_count

    @property
    def seed(self) -> int:
        """Seed of the hash family (shared between center and stations)."""
        return self._hashes.seed

    @property
    def item_count(self) -> int:
        """Number of (value, weight) insertions performed."""
        return self._item_count

    @property
    def hash_family(self) -> HashFamily:
        """The hash family used by this filter."""
        return self._hashes

    @property
    def revision(self) -> int:
        """Mutation counter, bumped by every insertion.

        The wire codec keys its per-object encoding cache on this, so encoding
        a filter, mutating it, and encoding again can never serve stale bytes.
        """
        return self._revision

    # -- construction from wire state ----------------------------------------------

    @classmethod
    def from_state(
        cls,
        bit_count: int,
        hash_count: int,
        seed: int,
        bits: bytes,
        weights: dict[int, frozenset],
        item_count: int,
    ) -> "WeightedBloomFilter":
        """Reconstruct a filter from decoded wire state.

        ``bits`` is the canonical bit-array serialization and ``weights`` maps
        bit positions to the weight sets attached there.
        """
        wbf = cls(bit_count, hash_count, seed=seed)
        wbf._bits = BitArray.from_bytes(bit_count, bits)
        # Keep decoded frozensets by reference: the codec interns one frozenset
        # per distinct index combination, so positions sharing a weight set
        # share one object instead of each copying it into a fresh set.
        # Insertions copy-on-write (see :meth:`add`).
        wbf._weights = {
            int(position): attached if type(attached) is frozenset else set(attached)
            for position, attached in weights.items()
        }
        wbf._item_count = int(item_count)
        return wbf

    def weight_entries(self) -> list[tuple[int, frozenset]]:
        """The sparse weight map as ``(position, weights)`` pairs, positions ascending.

        This is the canonical iteration order the wire codec serializes, so two
        filters holding the same weights produce identical bytes regardless of
        insertion order.
        """
        return [
            (position, frozenset(self._weights[position]))
            for position in sorted(self._weights)
        ]

    def __eq__(self, other: object) -> bool:
        """Structural equality: parameters, bits and weight map."""
        if not isinstance(other, WeightedBloomFilter):
            return NotImplemented
        return (
            self.bit_count == other.bit_count
            and self.hash_count == other.hash_count
            and self.seed == other.seed
            and self._item_count == other._item_count
            and self._bits.to_bytes() == other._bits.to_bytes()
            and {p: frozenset(w) for p, w in self._weights.items()}
            == {p: frozenset(w) for p, w in other._weights.items()}
        )

    __hash__ = None  # mutable: adding items changes equality

    # -- insertion ---------------------------------------------------------------

    def add(self, item: object, weight: Hashable) -> None:
        """Insert ``item`` and attach ``weight`` to each of its bits."""
        try:
            hash(weight)
        except TypeError as error:
            raise TypeError(
                f"weight must be hashable, got {type(weight).__name__}"
            ) from error
        weights = self._weights
        for position in self._hashes.positions(item):
            self._bits.set(position)
            attached = weights.get(position)
            if attached is None:
                weights[position] = {weight}
            elif type(attached) is frozenset:
                # Copy-on-write: this position held a frozenset shared with
                # other positions by the wire decoder; give it a private
                # mutable copy before touching it.
                mutable = set(attached)
                mutable.add(weight)
                weights[position] = mutable
            else:
                attached.add(weight)
        self._item_count += 1
        self._revision += 1

    def add_many(self, items: Iterable[object], weight: Hashable) -> None:
        """Insert every item of ``items`` with the same ``weight`` (batched)."""
        self.insert_many(items, weight)

    def insert_many(self, items: Iterable[object], weight: Hashable) -> None:
        """Batched insert: one position computation and one bit write per batch.

        The ``n × k`` positions are computed in a single
        :meth:`~repro.bloom.hashing.HashFamily.indices_batch` call and the bits
        set in one :meth:`~repro.bloom.bitset.BitArray.set_many` call; the
        weight map is updated over the deduplicated position set (many items
        share bits, so this does far fewer dict operations than per-item
        insertion).
        """
        try:
            hash(weight)
        except TypeError as error:
            raise TypeError(
                f"weight must be hashable, got {type(weight).__name__}"
            ) from error
        items = list(items)
        if not items:
            return
        rows = self._hashes.indices_batch(items)
        flat = [position for row in rows for position in row]
        self._bits.set_many(flat)
        weights = self._weights
        for position in set(flat):
            attached = weights.get(position)
            if attached is None:
                weights[position] = {weight}
            elif type(attached) is frozenset:
                mutable = set(attached)
                mutable.add(weight)
                weights[position] = mutable
            else:
                attached.add(weight)
        self._item_count += len(items)
        self._revision += 1

    # -- queries -----------------------------------------------------------------

    def contains(self, item: object) -> bool:
        """Plain membership query, ignoring weights (no false negatives)."""
        return all(self._bits.get(position) for position in self._hashes.positions(item))

    def contains_many(self, items: Sequence[object]) -> list[bool]:
        """Batched membership probe: one verdict per item, in order."""
        return self._bits.all_set_rows(self._hashes.indices_batch(items))

    def __contains__(self, item: object) -> bool:
        return self.contains(item)

    def query_weights(self, item: object) -> frozenset:
        """Return the weights consistent with every bit of ``item``.

        The result is the intersection of the weight sets attached to the ``k`` bit
        positions of ``item``; it is empty when any bit is 0 **or** when the bits are
        set but were set by values of differing weights (Algorithm 2's rejection
        condition).
        """
        return self.query_weights_at(self._hashes.positions(item))

    def query_weights_at(self, positions: Iterable[int]) -> frozenset:
        """Same as :meth:`query_weights` but for precomputed bit positions.

        Base stations probing one filter with many candidate patterns precompute the
        positions once per candidate (they depend only on ``m``, ``k`` and the seed)
        and reuse them.
        """
        common: set[Hashable] | None = None
        weights = self._weights
        empty: frozenset = frozenset()
        for position in positions:
            if not self._bits.get(position):
                return empty
            attached = weights.get(position, set())
            common = set(attached) if common is None else (common & attached)
            if not common:
                return empty
        return frozenset(common if common is not None else ())

    def query_many(self, items: Sequence[object]) -> list[frozenset]:
        """Batched weighted query: one weight set per item, in order.

        The bit-membership test for all ``n × k`` positions runs as a single
        :meth:`~repro.bloom.bitset.BitArray.all_set_rows` call; the sparse
        weight intersection runs only for the items whose bits all passed.
        """
        items = list(items)
        rows = self._hashes.indices_batch(items)
        return self.query_many_at(rows)

    def query_many_at(self, rows: Sequence[Sequence[int]]) -> list[frozenset]:
        """Same as :meth:`query_many` but for precomputed position rows."""
        passed = self._bits.all_set_rows(rows)
        results: list[frozenset] = []
        weights = self._weights
        empty = frozenset()
        for row, bits_ok in zip(rows, passed):
            if not bits_ok:
                results.append(empty)
                continue
            common: set[Hashable] | None = None
            for position in row:
                attached = weights.get(position, set())
                common = set(attached) if common is None else (common & attached)
                if not common:
                    break
            results.append(frozenset(common) if common else empty)
        return results

    # -- batched consistency probe (mask index, position table) --------------------

    def _weight_mask_index(
        self,
    ) -> tuple[int, tuple, list[int], dict[int, frozenset], object]:
        """Lazily built probe index: each position's weight set as an int bitmask.

        Distinct weights get consecutive bit numbers; a set bit's mask has the
        bits of its attached weights set, and every other position's is 0
        (see :meth:`position_masks`).  Intersecting weight sets across many
        positions then collapses to integer ``&``.  The index is keyed on
        :attr:`revision` so any insertion invalidates it, and the
        ``mask -> frozenset`` memo interns result sets so repeated matches of
        the same weight combination return one shared object.  The last
        field caches :meth:`position_table`.
        """
        index = self._mask_index
        if index is not None and index[0] == self._revision:
            return index
        weight_bits: dict[Hashable, int] = {}
        weight_list: list[Hashable] = []
        table = [0] * self.bit_count
        # from_state filters may attach weights to a clear bit.
        set_bits = set(self._bits.iter_set_bits())
        for position, attached in self._weights.items():
            mask = 0
            for weight in attached:
                bit = weight_bits.get(weight)
                if bit is None:
                    bit = len(weight_list)
                    weight_bits[weight] = bit
                    weight_list.append(weight)
                mask |= 1 << bit
            if position in set_bits:
                table[position] = mask
        index = (self._revision, tuple(weight_list), table, {0: frozenset()}, None)
        self._mask_index = index
        return index

    def weights_of_mask(self, mask: int) -> frozenset:
        """The weights whose bits are set in ``mask``, as one interned frozenset.

        ``mask`` numbers weights as the mask index does (bit ``i`` is the
        ``i``-th distinct weight), so it is an AND of position-table entries.
        Equal masks return the same object, and 0 the empty frozenset.
        """
        _revision, weight_list, _table, memo, _array = self._weight_mask_index()
        result = memo.get(mask)
        if result is None:
            members = []
            remaining = mask
            while remaining:
                low = remaining & -remaining
                members.append(weight_list[low.bit_length() - 1])
                remaining ^= low
            result = frozenset(members)
            memo[mask] = result
        return result

    def position_masks(self) -> list[int]:
        """The position table: entry ``p`` is bit ``p``'s weight mask, 0 if the bit is clear.

        Masks come from the mask index.  AND-ing the entries of a candidate's
        sampled positions decides both of Algorithm 2's conditions at once:
        the result is non-zero iff every bit is set and the positions share
        at least one weight (a clear bit, a set bit without weights and an
        empty intersection all yield 0).  Built once per :attr:`revision`.
        """
        return self._weight_mask_index()[2]

    def position_table(self):
        """:meth:`position_masks` as an ``m × ⌈W/64⌉`` NumPy array of ``<u8`` words.

        ``W`` is the number of distinct weights; word ``j`` of a row holds
        mask bits ``64·j`` to ``64·j + 63``.  For the benchmark's 4,608-bit,
        32-weight filter that is 37 KB.  Requires NumPy; built once per
        :attr:`revision`.
        """
        index = self._weight_mask_index()
        array = index[4]
        if array is None:
            import numpy

            width = 8 * max(1, (len(index[1]) + 63) // 64)
            array = numpy.frombuffer(
                b"".join(mask.to_bytes(width, "little") for mask in index[2]), dtype="<u8"
            ).reshape(self.bit_count, width // 8)
            self._mask_index = index[:4] + (array,)
        return array

    # -- pickling ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Drop the derived mask index and its position table: both are rebuilt on demand."""
        state = dict(self.__dict__)
        state["_mask_index"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # -- introspection -------------------------------------------------------------

    def fill_ratio(self) -> float:
        """Fraction of bits currently set."""
        return self._bits.count() / len(self._bits)

    def estimated_false_positive_rate(self) -> float:
        """False-positive probability of the underlying (unweighted) membership test."""
        return expected_false_positive_rate(
            bit_count=self.bit_count,
            hash_count=self.hash_count,
            item_count=self._item_count,
        )

    def distinct_weights(self) -> set:
        """All distinct weights stored anywhere in the filter."""
        result: set[Hashable] = set()
        for attached in self._weights.values():
            result |= attached
        return result

    def __repr__(self) -> str:
        return (
            f"WeightedBloomFilter(m={self.bit_count}, k={self.hash_count}, "
            f"items={self._item_count}, fill={self.fill_ratio():.3f}, "
            f"weights={len(self.distinct_weights())})"
        )
