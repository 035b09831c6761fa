"""Hash-function family shared by all Bloom-filter variants.

The family implements the standard Kirsch–Mitzenmacher double-hashing construction:
two independent 64-bit base hashes ``h1`` and ``h2`` are derived from the item, and
the ``i``-th filter hash is ``(h1 + i * h2) mod m``.  This gives ``k`` effectively
independent hash functions from a single strong hash of the item, which is both fast
and the construction used in practice by most Bloom-filter libraries.

Items may be integers, strings, bytes, floats, or tuples of those — the encoder in
:mod:`repro.core.encoder` hashes integer accumulated pattern values.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable, Sequence

from repro.utils.validation import require_positive

try:  # pragma: no cover - exercised indirectly through the batched paths
    import numpy as _np
except ImportError:  # pragma: no cover - the CI matrix covers the no-NumPy leg
    _np = None

_MASK_64 = (1 << 64) - 1

_pack_u32 = struct.Struct(">I").pack
_unpack_u64_pair = struct.Struct(">QQ").unpack_from

#: Below this batch size the NumPy round-trip costs more than the Python loop.
_VECTORIZE_THRESHOLD = 4


def canonical_item_bytes(item: object) -> bytes:
    """Encode a hashable item into a canonical byte string.

    The encoding is type-tagged so that e.g. the integer ``1`` and the string ``"1"``
    hash differently, and stable across runs and processes.
    """
    if isinstance(item, bool):
        return b"b" + (b"\x01" if item else b"\x00")
    if isinstance(item, int):
        return b"i" + str(item).encode("ascii")
    if isinstance(item, float):
        return b"f" + struct.pack(">d", item)
    if isinstance(item, str):
        return b"s" + item.encode("utf-8")
    if isinstance(item, (bytes, bytearray)):
        return b"y" + bytes(item)
    if isinstance(item, tuple):
        # Plain-int parts (the matcher's (index, value) probe items) are
        # encoded inline, exactly as the int branch above would; bools and
        # every other part take the recursive path.
        out = [b"t", _pack_u32(len(item))]
        for part in item:
            encoded = b"i%d" % part if part.__class__ is int else canonical_item_bytes(part)
            out += (_pack_u32(len(encoded)), encoded)
        return b"".join(out)
    raise TypeError(f"cannot hash item of type {type(item).__name__}")


class HashFamily:
    """A seeded family of ``k`` hash functions onto ``[0, m)`` via double hashing."""

    __slots__ = ("_hash_count", "_range", "_seed", "_suffix")

    def __init__(self, hash_count: int, value_range: int, seed: int = 0) -> None:
        require_positive(hash_count, "hash_count")
        require_positive(value_range, "value_range")
        self._hash_count = int(hash_count)
        self._range = int(value_range)
        self._seed = int(seed)
        # The seed tag every hashed payload ends with.
        self._suffix = b"|" + str(self._seed).encode("ascii")

    @property
    def hash_count(self) -> int:
        """Number of hash functions ``k``."""
        return self._hash_count

    @property
    def value_range(self) -> int:
        """Size of the output range ``m``."""
        return self._range

    @property
    def seed(self) -> int:
        """Seed distinguishing independent families."""
        return self._seed

    def _base_hashes(self, item: object) -> tuple[int, int]:
        payload = canonical_item_bytes(item) + self._suffix
        # h1 and h2 are the digest's first two big-endian 64-bit words.
        h1, h2 = _unpack_u64_pair(hashlib.sha256(payload).digest())
        # h2 must be odd so successive probes do not collapse onto a short cycle.
        return h1, h2 | 1

    def positions(self, item: object) -> list[int]:
        """Return the ``k`` bit positions for ``item``."""
        h1, h2 = self._base_hashes(item)
        return [((h1 + i * h2) & _MASK_64) % self._range for i in range(self._hash_count)]

    def indices_batch(self, items: Sequence[object]) -> list[list[int]]:
        """Return the ``k`` bit positions for every item of ``items`` at once.

        The base hashes are computed per item (SHA-256 is inherently scalar) but
        the double-hashing expansion ``(h1 + i·h2) mod m`` — ``k`` multiplies,
        adds and mods per item — is vectorized over the whole ``n × k`` grid
        when NumPy is available.  Results are bit-for-bit identical to calling
        :meth:`positions` per item, on every backend.
        """
        items = list(items)
        if _np is None or len(items) < _VECTORIZE_THRESHOLD:
            return [self.positions(item) for item in items]
        base = [self._base_hashes(item) for item in items]
        h1 = _np.array([pair[0] for pair in base], dtype="<u8")
        h2 = _np.array([pair[1] for pair in base], dtype="<u8")
        steps = _np.arange(self._hash_count, dtype="<u8")
        # uint64 arithmetic wraps modulo 2^64, matching the `& _MASK_64` of the
        # scalar path exactly.
        grid = h1[:, None] + steps[None, :] * h2[:, None]
        return (grid % _np.uint64(self._range)).astype(_np.int64).tolist()

    def positions_many(self, items: Iterable[object]) -> list[list[int]]:
        """Return positions for each item in ``items`` (alias of indices_batch)."""
        return self.indices_batch(list(items))

    def with_range(self, value_range: int) -> "HashFamily":
        """Return a family with the same ``k`` and seed but a different output range."""
        return HashFamily(self._hash_count, value_range, seed=self._seed)

    def __repr__(self) -> str:
        return (
            f"HashFamily(hash_count={self._hash_count}, "
            f"value_range={self._range}, seed={self._seed})"
        )
