"""False-positive analysis for Bloom filters.

These are the standard closed-form results: for a filter of ``m`` bits, ``k`` hash
functions and ``n`` inserted items, the probability that a particular bit is still 0
is ``p = (1 - 1/m)^(kn) ≈ e^(-kn/m)`` and the false-positive probability is
``(1 - p)^k``.  The paper's Table I uses the same ``m``, ``k``, ``p`` notation.
"""

from __future__ import annotations

from repro.utils.validation import require_non_negative, require_positive


def probability_bit_zero(bit_count: int, hash_count: int, item_count: int) -> float:
    """Probability ``p`` that a given bit is still 0 after ``item_count`` insertions."""
    require_positive(bit_count, "bit_count")
    require_positive(hash_count, "hash_count")
    require_non_negative(item_count, "item_count")
    return (1.0 - 1.0 / bit_count) ** (hash_count * item_count)


def fill_ratio(bit_count: int, hash_count: int, item_count: int) -> float:
    """Expected fraction of bits set after ``item_count`` insertions."""
    return 1.0 - probability_bit_zero(bit_count, hash_count, item_count)


def expected_false_positive_rate(bit_count: int, hash_count: int, item_count: int) -> float:
    """Expected false-positive probability ``(1 - p)^k``."""
    return fill_ratio(bit_count, hash_count, item_count) ** hash_count
