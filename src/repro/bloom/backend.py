"""Pluggable bit-storage backends for the Bloom-filter substrate.

Every Bloom-filter variant stores its bits through a :class:`BitBackend`.  Two
implementations are provided:

* :class:`BytearrayBackend` — the original dependency-free implementation, one
  byte per 8 bits in a ``bytearray``.  Always available.
* :class:`NumpyBackend` — bits packed into little-endian ``uint64`` words in a
  NumPy array; batched set/test/popcount/union run word-wise over the whole
  array instead of bit-by-bit in Python.  Available only when NumPy is
  importable.

Both backends expose the same canonical bit layout — bit ``i`` lives at byte
``i >> 3``, position ``i & 7`` — so :meth:`BitBackend.to_bytes` is identical
across backends for identical bit sets, serialized sizes match the
communication-cost model exactly, and filters built on different backends are
interchangeable on the wire.

Backends are selected by name (``"python"``, ``"numpy"`` or ``"auto"``) via
:func:`resolve_backend`; ``"auto"`` prefers NumPy and silently falls back to the
pure-Python backend when NumPy is absent, which is what
:class:`~repro.core.config.DIMatchingConfig` uses by default.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator, Sequence

from repro.utils.validation import require_positive

try:  # pragma: no cover - exercised indirectly through backend selection
    import numpy as _np
except ImportError:  # pragma: no cover - the CI matrix covers the no-NumPy leg
    _np = None

HAS_NUMPY = _np is not None

#: Backend names accepted by :func:`resolve_backend` and ``DIMatchingConfig``.
BACKEND_CHOICES = ("auto", "python", "numpy")


def iter_set_bits_in_bytes(data: bytes, bit_count: int) -> Iterator[int]:
    """Yield set-bit indices of a canonical bit buffer in ascending order.

    Works on the raw byte layout (bit ``i`` at byte ``i >> 3``, position
    ``i & 7``) so callers that hold serialized bits — the wire codec, a backend
    — share one definition of "set bits".
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


class BackendUnavailableError(RuntimeError):
    """Raised when an explicitly requested backend cannot be constructed."""


class BitBackend(ABC):
    """Abstract fixed-length bit store with batched operations.

    Concrete backends must keep the canonical byte layout of :meth:`to_bytes`
    (bit ``i`` at byte ``i >> 3``, bit ``i & 7``) so that serialization and
    equality are backend-independent.
    """

    name: str = "abstract"

    __slots__ = ("_length",)

    def __init__(self, length: int) -> None:
        require_positive(length, "length")
        self._length = int(length)

    @property
    def length(self) -> int:
        """Number of addressable bits."""
        return self._length

    # -- single-bit operations -------------------------------------------------

    @abstractmethod
    def get(self, index: int) -> bool:
        """Return True if the bit at ``index`` is set."""

    @abstractmethod
    def set(self, index: int) -> bool:
        """Set the bit at ``index``; return True if it was previously clear."""

    @abstractmethod
    def clear(self, index: int) -> None:
        """Clear the bit at ``index``."""

    # -- batched operations ----------------------------------------------------

    def set_many(self, indices: Sequence[int]) -> None:
        """Set every bit in ``indices`` (duplicates allowed)."""
        for index in indices:
            self.set(index)

    def get_many(self, indices: Sequence[int]) -> list[bool]:
        """Return the value of every bit in ``indices``, in order."""
        return [self.get(index) for index in indices]

    def all_set_rows(self, rows: Sequence[Sequence[int]]) -> list[bool]:
        """For each row of bit indices, return True iff *every* bit is set.

        This is the membership-probe primitive: a Bloom probe of ``n`` items with
        ``k`` hashes is one ``n × k`` row test.  Rows must be non-empty and of
        uniform length for the vectorized backend to batch them.
        """
        return [all(self.get(index) for index in row) for row in rows]

    # -- aggregate operations --------------------------------------------------

    @abstractmethod
    def count(self) -> int:
        """Return the number of set bits (population count)."""

    @abstractmethod
    def union_with(self, other: "BitBackend") -> "BitBackend":
        """Return a new backend holding the bitwise OR of both bit sets."""

    @abstractmethod
    def intersection_with(self, other: "BitBackend") -> "BitBackend":
        """Return a new backend holding the bitwise AND of both bit sets."""

    @abstractmethod
    def copy(self) -> "BitBackend":
        """Return a deep copy."""

    # -- serialization ---------------------------------------------------------

    @abstractmethod
    def to_bytes(self) -> bytes:
        """Canonical serialization: ``(length + 7) // 8`` bytes, bit ``i`` at
        byte ``i >> 3`` position ``i & 7``."""

    @classmethod
    @abstractmethod
    def from_bytes(cls, length: int, data: bytes) -> "BitBackend":
        """Reconstruct a backend from :meth:`to_bytes` output."""

    def iter_set_bits(self) -> Iterator[int]:
        """Yield indices of set bits in increasing order."""
        return iter_set_bits_in_bytes(self.to_bytes(), self._length)

    # -- helpers ---------------------------------------------------------------

    def _check_index(self, index: int) -> int:
        if not isinstance(index, int) or isinstance(index, bool):
            raise TypeError(f"bit index must be an int, got {type(index).__name__}")
        if index < 0 or index >= self._length:
            raise IndexError(f"bit index {index} out of range [0, {self._length})")
        return index

    def _check_compatible(self, other: "BitBackend") -> None:
        if not isinstance(other, BitBackend):
            raise TypeError(f"expected BitBackend, got {type(other).__name__}")
        if other.length != self._length:
            raise ValueError(
                f"bit backends have different lengths: {self._length} vs {other.length}"
            )


class BytearrayBackend(BitBackend):
    """Dependency-free backend: one ``bytearray`` byte per 8 bits."""

    name = "python"

    __slots__ = ("_buffer",)

    def __init__(self, length: int) -> None:
        super().__init__(length)
        self._buffer = bytearray((self._length + 7) // 8)

    def get(self, index: int) -> bool:
        index = self._check_index(index)
        return bool(self._buffer[index >> 3] & (1 << (index & 7)))

    def set(self, index: int) -> bool:
        index = self._check_index(index)
        mask = 1 << (index & 7)
        byte = self._buffer[index >> 3]
        was_clear = not (byte & mask)
        self._buffer[index >> 3] = byte | mask
        return was_clear

    def clear(self, index: int) -> None:
        index = self._check_index(index)
        self._buffer[index >> 3] &= ~(1 << (index & 7)) & 0xFF

    def set_many(self, indices: Sequence[int]) -> None:
        buffer = self._buffer
        length = self._length
        for index in indices:
            if index < 0 or index >= length:
                self._check_index(index)
            buffer[index >> 3] |= 1 << (index & 7)

    def get_many(self, indices: Sequence[int]) -> list[bool]:
        buffer = self._buffer
        return [bool(buffer[index >> 3] & (1 << (index & 7))) for index in indices]

    def all_set_rows(self, rows: Sequence[Sequence[int]]) -> list[bool]:
        buffer = self._buffer
        return [
            all(buffer[index >> 3] & (1 << (index & 7)) for index in row)
            for row in rows
        ]

    def count(self) -> int:
        return sum(bin(byte).count("1") for byte in self._buffer)

    def union_with(self, other: BitBackend) -> "BytearrayBackend":
        self._check_compatible(other)
        result = self.copy()
        if isinstance(other, BytearrayBackend):
            other_buffer = other._buffer
        else:
            other_buffer = other.to_bytes()
        for i, byte in enumerate(other_buffer):
            result._buffer[i] |= byte
        return result

    def intersection_with(self, other: BitBackend) -> "BytearrayBackend":
        self._check_compatible(other)
        result = self.copy()
        if isinstance(other, BytearrayBackend):
            other_buffer = other._buffer
        else:
            other_buffer = other.to_bytes()
        for i, byte in enumerate(other_buffer):
            result._buffer[i] &= byte
        return result

    def copy(self) -> "BytearrayBackend":
        clone = BytearrayBackend(self._length)
        clone._buffer[:] = self._buffer
        return clone

    def to_bytes(self) -> bytes:
        return bytes(self._buffer)

    @classmethod
    def from_bytes(cls, length: int, data: bytes) -> "BytearrayBackend":
        backend = cls(length)
        expected = (int(length) + 7) // 8
        if len(data) != expected:
            raise ValueError(f"expected {expected} bytes for {length} bits, got {len(data)}")
        backend._buffer[:] = data
        return backend


class NumpyBackend(BitBackend):
    """Vectorized backend: bits packed into little-endian ``uint64`` words.

    Batched operations (``set_many``, ``get_many``, ``all_set_rows``, ``count``,
    union/intersection) run as whole-array NumPy expressions; single-bit
    operations are still O(1) but carry NumPy scalar overhead, so callers on hot
    paths should prefer the batched entry points.
    """

    name = "numpy"

    __slots__ = ("_words",)

    def __init__(self, length: int) -> None:
        if _np is None:
            raise BackendUnavailableError(
                "the 'numpy' bit backend requires NumPy, which is not installed; "
                "use backend='python' or 'auto'"
            )
        super().__init__(length)
        self._words = _np.zeros((self._length + 63) // 64, dtype="<u8")

    def get(self, index: int) -> bool:
        index = self._check_index(index)
        return bool((int(self._words[index >> 6]) >> (index & 63)) & 1)

    def set(self, index: int) -> bool:
        index = self._check_index(index)
        mask = 1 << (index & 63)
        word = int(self._words[index >> 6])
        was_clear = not (word & mask)
        self._words[index >> 6] = word | mask
        return was_clear

    def clear(self, index: int) -> None:
        index = self._check_index(index)
        self._words[index >> 6] = int(self._words[index >> 6]) & ~(1 << (index & 63))

    def _as_indices(self, indices: Sequence[int]) -> "_np.ndarray":
        idx = _np.asarray(indices, dtype=_np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self._length):
            bad = idx[(idx < 0) | (idx >= self._length)][0]
            raise IndexError(f"bit index {int(bad)} out of range [0, {self._length})")
        return idx

    def set_many(self, indices: Sequence[int]) -> None:
        idx = self._as_indices(indices)
        if not idx.size:
            return
        masks = _np.left_shift(_np.uint64(1), (idx & 63).astype("<u8"))
        # bitwise_or.at handles duplicate word indices within one batch.
        _np.bitwise_or.at(self._words, idx >> 6, masks)

    def get_many(self, indices: Sequence[int]) -> list[bool]:
        idx = self._as_indices(indices)
        if not idx.size:
            return []
        bits = (self._words[idx >> 6] >> (idx & 63).astype("<u8")) & _np.uint64(1)
        return bits.astype(bool).tolist()

    def all_set_rows(self, rows: Sequence[Sequence[int]]) -> list[bool]:
        if not len(rows):
            return []
        try:
            idx = _np.asarray(rows, dtype=_np.int64)
        except ValueError:
            # Ragged rows (differing hash counts) fall back to the generic path.
            return super().all_set_rows(rows)
        if idx.ndim != 2:
            return super().all_set_rows(rows)
        if idx.size and (idx.min() < 0 or idx.max() >= self._length):
            bad = idx[(idx < 0) | (idx >= self._length)].flat[0]
            raise IndexError(f"bit index {int(bad)} out of range [0, {self._length})")
        bits = (self._words[idx >> 6] >> (idx & 63).astype("<u8")) & _np.uint64(1)
        return bits.all(axis=1).tolist()

    def count(self) -> int:
        if hasattr(_np, "bitwise_count"):
            return int(_np.bitwise_count(self._words).sum())
        return int(_np.unpackbits(self._words.view(_np.uint8)).sum())

    def union_with(self, other: BitBackend) -> "NumpyBackend":
        self._check_compatible(other)
        result = self.copy()
        if isinstance(other, NumpyBackend):
            result._words |= other._words
        else:
            result._words |= NumpyBackend.from_bytes(self._length, other.to_bytes())._words
        return result

    def intersection_with(self, other: BitBackend) -> "NumpyBackend":
        self._check_compatible(other)
        result = self.copy()
        if isinstance(other, NumpyBackend):
            result._words &= other._words
        else:
            result._words &= NumpyBackend.from_bytes(self._length, other.to_bytes())._words
        return result

    def copy(self) -> "NumpyBackend":
        clone = NumpyBackend(self._length)
        clone._words[:] = self._words
        return clone

    def to_bytes(self) -> bytes:
        # Little-endian words give the canonical byte layout directly: byte j of
        # the word stream is exactly byte j of the bit stream.
        return self._words.tobytes()[: (self._length + 7) // 8]

    @classmethod
    def from_bytes(cls, length: int, data: bytes) -> "NumpyBackend":
        backend = cls(length)
        expected = (int(length) + 7) // 8
        if len(data) != expected:
            raise ValueError(f"expected {expected} bytes for {length} bits, got {len(data)}")
        padded = bytes(data) + b"\x00" * (backend._words.nbytes - len(data))
        backend._words[:] = _np.frombuffer(padded, dtype="<u8")
        return backend


def available_backends() -> tuple[str, ...]:
    """Names of the concrete backends constructible in this environment."""
    return ("python", "numpy") if HAS_NUMPY else ("python",)


def resolve_backend_class(name: str) -> type[BitBackend]:
    """Map a backend name to its class.

    ``"auto"`` prefers the NumPy backend and falls back to the pure-Python one
    when NumPy is absent; asking for ``"numpy"`` explicitly without NumPy raises
    :class:`BackendUnavailableError`.
    """
    if name == "auto":
        return NumpyBackend if HAS_NUMPY else BytearrayBackend
    if name == "python":
        return BytearrayBackend
    if name == "numpy":
        if not HAS_NUMPY:
            raise BackendUnavailableError(
                "backend 'numpy' requested but NumPy is not installed; "
                "install NumPy or use backend='auto'/'python'"
            )
        return NumpyBackend
    raise ValueError(f"unknown bit backend {name!r}; choose from {BACKEND_CHOICES}")


def make_backend(length: int, backend: "str | BitBackend" = "auto") -> BitBackend:
    """Construct a backend of ``length`` bits from a name or pass one through."""
    if isinstance(backend, BitBackend):
        if backend.length != length:
            raise ValueError(
                f"provided backend has {backend.length} bits, expected {length}"
            )
        return backend
    return resolve_backend_class(backend)(length)
