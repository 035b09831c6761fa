"""Deterministic random number generation helpers.

All stochastic components of the library (synthetic data generation, sampling,
simulation) accept an integer seed and derive their generators through these
helpers so that experiments are exactly reproducible.
"""

from __future__ import annotations

import hashlib
from typing import Callable

try:
    # The generators are NumPy ones; seed derivation below stays pure-Python so
    # the matching core can import this module without NumPy installed.
    import numpy as np
except ImportError:  # pragma: no cover - covered by the no-NumPy CI leg
    np = None


def _absorb(digest: "hashlib._Hash", labels: tuple) -> "hashlib._Hash":
    # The one home of the label framing: a 0x1f separator, then the repr.
    for label in labels:
        digest.update(b"\x1f")
        digest.update(repr(label).encode("utf-8"))
    return digest


def derive_seed(base_seed: int, *labels: object) -> int:
    """Derive a child seed from ``base_seed`` and a sequence of labels.

    The derivation is stable across processes and Python versions (it uses SHA-256
    rather than ``hash()``), so two runs with the same base seed and labels produce
    identical streams.
    """
    digest = _absorb(hashlib.sha256(str(int(base_seed)).encode("utf-8")), labels)
    return int.from_bytes(digest.digest()[:8], "big")


def seed_deriver(base_seed: int, *labels: object) -> Callable[[object], int]:
    """Return ``last -> derive_seed(base_seed, *labels, last)`` for many ``last``.

    The shared ``(base_seed, *labels)`` prefix is hashed once and each call only
    absorbs its own label into a copy, so deriving one seed per user of a large
    population does not rehash the constant part every time.
    """
    prefix = _absorb(hashlib.sha256(str(int(base_seed)).encode("utf-8")), labels)

    def derive(last: object) -> int:
        return int.from_bytes(_absorb(prefix.copy(), (last,)).digest()[:8], "big")

    return derive


def make_rng(seed: int, *labels: object) -> "np.random.Generator":
    """Create a :class:`numpy.random.Generator` seeded from ``seed`` and ``labels``."""
    if np is None:
        raise ImportError(
            "repro's synthetic-data layer requires NumPy (pip install 'repro-dimatching[fast]'); "
            "only the matching core and Bloom substrate work without it"
        )
    return np.random.default_rng(derive_seed(seed, *labels))


def spawn_rngs(seed: int, count: int, *labels: object) -> "list[np.random.Generator]":
    """Create ``count`` independent generators derived from ``seed`` and ``labels``."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return [make_rng(seed, *labels, index) for index in range(count)]
