"""Compact bit array used as the backing store of the BF and the WBF.

The paper's reproduction hint suggests the ``bitarray`` package; instead the
storage is pluggable (see :mod:`repro.bloom.backend`): a dependency-free
``bytearray`` backend that is always available, and a vectorized NumPy
``uint64``-word backend used automatically when NumPy is installed.  The class
supports the API the filters need — get/set/clear a bit, batched set/test,
population count, union/intersection and the canonical byte serialization —
and delegates each operation to its backend.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.bloom.backend import BitBackend, make_backend


class BitArray:
    """A fixed-length array of bits backed by a pluggable :class:`BitBackend`.

    The default backend is the dependency-free pure-Python one so that bare
    ``BitArray`` construction never depends on NumPy; the Bloom filters pass the
    configured backend name (``"auto"`` by default) explicitly.
    """

    __slots__ = ("_backend",)

    def __init__(self, length: int, backend: str | BitBackend = "python") -> None:
        self._backend = make_backend(length, backend)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_indices(
        cls,
        length: int,
        indices: Iterator[int] | list[int],
        backend: str | BitBackend = "python",
    ) -> "BitArray":
        """Create a bit array of ``length`` bits with the given indices set."""
        bits = cls(length, backend=backend)
        bits.set_many(list(indices))
        return bits

    @classmethod
    def from_bytes(
        cls, length: int, data: bytes, backend: str = "python"
    ) -> "BitArray":
        """Reconstruct a bit array from its canonical serialization.

        ``data`` must be exactly ``(length + 7) // 8`` bytes in the canonical
        layout of :meth:`to_bytes`; ``backend`` selects the storage backend the
        bits are materialized on (a local choice — the bytes are backend-free).
        """
        from repro.bloom.backend import resolve_backend_class

        return cls._wrap(resolve_backend_class(backend).from_bytes(length, data))

    @classmethod
    def _wrap(cls, backend: BitBackend) -> "BitArray":
        bits = cls.__new__(cls)
        bits._backend = backend
        return bits

    def copy(self) -> "BitArray":
        """Return a deep copy of this bit array (same backend)."""
        return BitArray._wrap(self._backend.copy())

    # -- backend introspection -------------------------------------------------

    @property
    def backend(self) -> BitBackend:
        """The underlying storage backend."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """Name of the storage backend ("python" or "numpy")."""
        return self._backend.name

    # -- core bit operations --------------------------------------------------

    def get(self, index: int) -> bool:
        """Return True if the bit at ``index`` is set."""
        return self._backend.get(index)

    def set(self, index: int) -> bool:
        """Set the bit at ``index``; return True if it was previously clear."""
        return self._backend.set(index)

    def clear(self, index: int) -> None:
        """Clear the bit at ``index``."""
        self._backend.clear(index)

    # -- batched bit operations ------------------------------------------------

    def set_many(self, indices: Sequence[int]) -> None:
        """Set every bit in ``indices`` in one backend call."""
        self._backend.set_many(indices)

    def get_many(self, indices: Sequence[int]) -> list[bool]:
        """Return the value of every bit in ``indices``, in order."""
        return self._backend.get_many(indices)

    def all_set_rows(self, rows: Sequence[Sequence[int]]) -> list[bool]:
        """For each row of indices, True iff every bit of the row is set."""
        return self._backend.all_set_rows(rows)

    def __getitem__(self, index: int) -> bool:
        return self._backend.get(index)

    def __setitem__(self, index: int, value: bool) -> None:
        if value:
            self._backend.set(index)
        else:
            self._backend.clear(index)

    def __len__(self) -> int:
        return self._backend.length

    # -- aggregate operations -------------------------------------------------

    def count(self) -> int:
        """Return the number of set bits (population count)."""
        return self._backend.count()

    def iter_set_bits(self) -> Iterator[int]:
        """Yield indices of set bits in increasing order."""
        return self._backend.iter_set_bits()

    def union(self, other: "BitArray") -> "BitArray":
        """Return a new bit array that is the bitwise OR of self and other."""
        self._check_compatible(other)
        return BitArray._wrap(self._backend.union_with(other._backend))

    def intersection(self, other: "BitArray") -> "BitArray":
        """Return a new bit array that is the bitwise AND of self and other."""
        self._check_compatible(other)
        return BitArray._wrap(self._backend.intersection_with(other._backend))

    def _check_compatible(self, other: "BitArray") -> None:
        if not isinstance(other, BitArray):
            raise TypeError(f"expected BitArray, got {type(other).__name__}")
        if len(other) != len(self):
            raise ValueError(
                f"bit arrays have different lengths: {len(self)} vs {len(other)}"
            )

    def __or__(self, other: "BitArray") -> "BitArray":
        return self.union(other)

    def __and__(self, other: "BitArray") -> "BitArray":
        return self.intersection(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitArray):
            return NotImplemented
        # Compare canonical bytes so arrays on different backends compare equal.
        return len(self) == len(other) and self.to_bytes() == other.to_bytes()

    def __hash__(self) -> int:  # pragma: no cover - BitArray is mutable; not hashable
        raise TypeError("BitArray is mutable and unhashable")

    def __repr__(self) -> str:
        return (
            f"BitArray(length={len(self)}, set={self.count()}, "
            f"backend={self.backend_name!r})"
        )

    # -- serialization ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Canonical serialization (backend-independent byte layout)."""
        return self._backend.to_bytes()
