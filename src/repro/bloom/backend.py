"""The bit store's name, for the system benchmark's machine fingerprint.

Every filter stores its bits in a :class:`~repro.bloom.bitset.BitArray`.  The
one function here has one reader: ``fingerprint()`` in
``benchmarks/system/run.py``, which records the store's name.
"""

from __future__ import annotations

from repro.bloom.bitset import BitArray


def resolve_backend_class(name: str) -> type[BitArray]:
    """The bit store, :class:`BitArray`, whatever ``name`` is asked for."""
    return BitArray
