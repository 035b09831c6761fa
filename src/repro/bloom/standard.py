"""Classic Bloom filter (Bloom, 1970).

This is the baseline structure the paper compares the Weighted Bloom Filter against
(the "BF" method in Figure 4): membership-only, no weights, false positives allowed,
no false negatives.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.bloom.analysis import expected_false_positive_rate
from repro.bloom.bitset import BitArray
from repro.bloom.hashing import HashFamily
from repro.utils.validation import require_positive


class BloomFilter:
    """A fixed-size Bloom filter supporting ``add`` and membership queries."""

    def __init__(self, bit_count: int, hash_count: int, seed: int = 0) -> None:
        require_positive(bit_count, "bit_count")
        require_positive(hash_count, "hash_count")
        self._bits = BitArray(bit_count)
        self._hashes = HashFamily(hash_count, bit_count, seed=seed)
        self._item_count = 0
        self._revision = 0

    # -- properties ------------------------------------------------------------

    @property
    def revision(self) -> int:
        """Mutation counter, bumped by every insertion.

        The wire codec keys its per-object encoding cache on this, so encoding
        a filter, mutating it, and encoding again can never serve stale bytes.
        (Mutating the exposed ``bits`` array directly bypasses the counter.)
        """
        return self._revision

    @property
    def bit_count(self) -> int:
        """Filter length ``m`` in bits."""
        return len(self._bits)

    @property
    def hash_count(self) -> int:
        """Number of hash functions ``k``."""
        return self._hashes.hash_count

    @property
    def item_count(self) -> int:
        """Number of items added (with multiplicity)."""
        return self._item_count

    @property
    def bits(self) -> BitArray:
        """The underlying bit array (shared, not a copy)."""
        return self._bits

    @property
    def hash_family(self) -> HashFamily:
        """The hash family used by this filter."""
        return self._hashes

    # -- construction from wire state ------------------------------------------

    @classmethod
    def from_state(
        cls,
        bit_count: int,
        hash_count: int,
        seed: int,
        bits: bytes,
        item_count: int,
    ) -> "BloomFilter":
        """Reconstruct a filter from decoded wire state.

        ``bits`` is the canonical serialization of the bit array.
        """
        bloom = cls(bit_count, hash_count, seed=seed)
        bloom._bits = BitArray.from_bytes(bit_count, bits)
        bloom._item_count = int(item_count)
        return bloom

    def __eq__(self, other: object) -> bool:
        """Structural equality: same parameters, same bits."""
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return (
            self.bit_count == other.bit_count
            and self.hash_count == other.hash_count
            and self._hashes.seed == other._hashes.seed
            and self._item_count == other._item_count
            and self._bits.to_bytes() == other._bits.to_bytes()
        )

    __hash__ = None  # mutable: adding items changes equality

    # -- core operations -------------------------------------------------------

    def add(self, item: object) -> None:
        """Insert ``item`` into the filter."""
        for position in self._hashes.positions(item):
            self._bits.set(position)
        self._item_count += 1
        self._revision += 1

    def add_many(self, items: Iterable[object]) -> None:
        """Insert every item of ``items`` through the batched path.

        All ``n × k`` bit positions are computed in one call and set in one
        :meth:`~repro.bloom.bitset.BitArray.set_many` call.
        """
        items = list(items)
        rows = self._hashes.indices_batch(items)
        self._bits.set_many([position for row in rows for position in row])
        self._item_count += len(items)
        self._revision += 1

    def contains(self, item: object) -> bool:
        """Return True if ``item`` may be in the set (no false negatives)."""
        return all(self._bits.get(position) for position in self._hashes.positions(item))

    def contains_many(self, items: Sequence[object]) -> list[bool]:
        """Batched membership probe: one verdict per item, in order."""
        return self._bits.all_set_rows(self._hashes.indices_batch(items))

    def __contains__(self, item: object) -> bool:
        return self.contains(item)

    # -- introspection ---------------------------------------------------------

    def fill_ratio(self) -> float:
        """Fraction of bits currently set."""
        return self._bits.count() / len(self._bits)

    def estimated_false_positive_rate(self) -> float:
        """Theoretical false-positive probability given the items added so far."""
        return expected_false_positive_rate(
            bit_count=self.bit_count,
            hash_count=self.hash_count,
            item_count=self._item_count,
        )

    def union(self, other: "BloomFilter") -> "BloomFilter":
        """Return a filter representing the union of both filters' sets.

        Both filters must share ``m``, ``k`` and seed, otherwise positions are
        incompatible and the union is meaningless.
        """
        self._check_compatible(other)
        result = BloomFilter(self.bit_count, self.hash_count, seed=self._hashes.seed)
        result._bits = self._bits | other._bits
        result._item_count = self._item_count + other._item_count
        return result

    def _check_compatible(self, other: "BloomFilter") -> None:
        if not isinstance(other, BloomFilter):
            raise TypeError(f"expected BloomFilter, got {type(other).__name__}")
        if (
            other.bit_count != self.bit_count
            or other.hash_count != self.hash_count
            or other._hashes.seed != self._hashes.seed
        ):
            raise ValueError("Bloom filters are not compatible (m, k or seed differ)")

    def __repr__(self) -> str:
        return (
            f"BloomFilter(m={self.bit_count}, k={self.hash_count}, "
            f"items={self._item_count}, fill={self.fill_ratio():.3f})"
        )
