"""Compact bit array used as the backing store of the BF and the WBF.

The paper's reproduction hint suggests the ``bitarray`` package; instead the
bits live in one dependency-free ``bytearray``, bit ``i`` at byte ``i >> 3``,
position ``i & 7``.  That layout is also the canonical serialization
(:meth:`BitArray.to_bytes`), so the wire codec writes the buffer as it is.
The class supports the API the filters need — get/set/clear a bit, batched
set/test, population count, union/intersection and the byte serialization.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.utils.validation import require_positive


def iter_set_bits_in_bytes(data: bytes, bit_count: int) -> Iterator[int]:
    """Yield set-bit indices of a canonical bit buffer in ascending order.

    Works on the raw byte layout (bit ``i`` at byte ``i >> 3``, position
    ``i & 7``) so callers that hold serialized bits — the wire codec, a
    :class:`BitArray` — share one definition of "set bits".
    """
    for byte_index, byte in enumerate(data):
        if not byte:
            continue
        base = byte_index << 3
        for offset in range(8):
            if byte & (1 << offset):
                index = base + offset
                if index < bit_count:
                    yield index


class BitArray:
    """A fixed-length array of bits held in one ``bytearray``."""

    #: The store's name, as the system benchmark's machine fingerprint reads it.
    name = "python"

    __slots__ = ("_length", "_buffer")

    def __init__(self, length: int) -> None:
        require_positive(length, "length")
        self._length = int(length)
        self._buffer = bytearray((self._length + 7) // 8)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_indices(cls, length: int, indices: Iterable[int]) -> "BitArray":
        """Create a bit array of ``length`` bits with the given indices set."""
        bits = cls(length)
        bits.set_many(list(indices))
        return bits

    @classmethod
    def from_bytes(cls, length: int, data: bytes) -> "BitArray":
        """Reconstruct a bit array from its canonical serialization.

        ``data`` must be exactly ``(length + 7) // 8`` bytes in the layout of
        :meth:`to_bytes`, with the padding bits past ``length`` clear.
        """
        bits = cls(length)
        expected = len(bits._buffer)
        if len(data) != expected:
            raise ValueError(f"expected {expected} bytes for {length} bits, got {len(data)}")
        spare = bits._length & 7
        if spare and data[-1] >> spare:
            raise ValueError(f"set padding bits beyond bit {length} in the final byte")
        bits._buffer[:] = data
        return bits

    def copy(self) -> "BitArray":
        """Return a deep copy of this bit array."""
        clone = BitArray(self._length)
        clone._buffer[:] = self._buffer
        return clone

    # -- core bit operations --------------------------------------------------

    def get(self, index: int) -> bool:
        """Return True if the bit at ``index`` is set."""
        index = self._check_index(index)
        return bool(self._buffer[index >> 3] & (1 << (index & 7)))

    def set(self, index: int) -> bool:
        """Set the bit at ``index``; return True if it was previously clear."""
        index = self._check_index(index)
        mask = 1 << (index & 7)
        byte = self._buffer[index >> 3]
        self._buffer[index >> 3] = byte | mask
        return not (byte & mask)

    def clear(self, index: int) -> None:
        """Clear the bit at ``index``."""
        index = self._check_index(index)
        self._buffer[index >> 3] &= ~(1 << (index & 7)) & 0xFF

    # -- batched bit operations ------------------------------------------------

    def set_many(self, indices: Sequence[int]) -> None:
        """Set every bit in ``indices`` (duplicates allowed)."""
        buffer = self._buffer
        length = self._length
        for index in indices:
            if index < 0 or index >= length:
                self._check_index(index)
            buffer[index >> 3] |= 1 << (index & 7)

    def get_many(self, indices: Sequence[int]) -> list[bool]:
        """Return the value of every bit in ``indices``, in order."""
        buffer = self._buffer
        return [bool(buffer[index >> 3] & (1 << (index & 7))) for index in indices]

    def all_set_rows(self, rows: Sequence[Sequence[int]]) -> list[bool]:
        """For each row of indices, True iff every bit of the row is set.

        This is the membership-probe primitive: a Bloom probe of ``n`` items
        with ``k`` hashes is one ``n × k`` row test.
        """
        buffer = self._buffer
        return [
            all(buffer[index >> 3] & (1 << (index & 7)) for index in row) for row in rows
        ]

    def __getitem__(self, index: int) -> bool:
        return self.get(index)

    def __setitem__(self, index: int, value: bool) -> None:
        if value:
            self.set(index)
        else:
            self.clear(index)

    def __len__(self) -> int:
        return self._length

    # -- aggregate operations -------------------------------------------------

    def count(self) -> int:
        """Return the number of set bits (population count)."""
        return sum(bin(byte).count("1") for byte in self._buffer)

    def iter_set_bits(self) -> Iterator[int]:
        """Yield indices of set bits in increasing order."""
        return iter_set_bits_in_bytes(self.to_bytes(), self._length)

    def union(self, other: "BitArray") -> "BitArray":
        """Return a new bit array that is the bitwise OR of self and other."""
        self._check_compatible(other)
        result = self.copy()
        for i, byte in enumerate(other._buffer):
            result._buffer[i] |= byte
        return result

    def intersection(self, other: "BitArray") -> "BitArray":
        """Return a new bit array that is the bitwise AND of self and other."""
        self._check_compatible(other)
        result = self.copy()
        for i, byte in enumerate(other._buffer):
            result._buffer[i] &= byte
        return result

    def __or__(self, other: "BitArray") -> "BitArray":
        return self.union(other)

    def __and__(self, other: "BitArray") -> "BitArray":
        return self.intersection(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitArray):
            return NotImplemented
        return self._length == other._length and self._buffer == other._buffer

    def __hash__(self) -> int:  # pragma: no cover - BitArray is mutable; not hashable
        raise TypeError("BitArray is mutable and unhashable")

    def __repr__(self) -> str:
        return f"BitArray(length={self._length}, set={self.count()})"

    # -- serialization ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Canonical serialization: ``(length + 7) // 8`` bytes, bit ``i`` at
        byte ``i >> 3`` position ``i & 7``."""
        return bytes(self._buffer)

    # -- helpers ---------------------------------------------------------------

    def _check_index(self, index: int) -> int:
        if not isinstance(index, int) or isinstance(index, bool):
            raise TypeError(f"bit index must be an int, got {type(index).__name__}")
        if index < 0 or index >= self._length:
            raise IndexError(f"bit index {index} out of range [0, {self._length})")
        return index

    def _check_compatible(self, other: "BitArray") -> None:
        if not isinstance(other, BitArray):
            raise TypeError(f"expected BitArray, got {type(other).__name__}")
        if other._length != self._length:
            raise ValueError(
                f"bit arrays have different lengths: {self._length} vs {other._length}"
            )
