"""Bloom-filter substrate.

This package provides the classic Bloom filter that the plain-BF baseline uses,
plus the bit-set and hashing layers it is built on.  The paper's own contribution —
the Weighted Bloom Filter — lives in :mod:`repro.core.wbf` and is built on the
same substrate.
"""

from repro.bloom.analysis import expected_false_positive_rate, fill_ratio
from repro.bloom.bitset import BitArray
from repro.bloom.hashing import HashFamily
from repro.bloom.standard import BloomFilter

__all__ = [
    "BitArray",
    "BloomFilter",
    "HashFamily",
    "expected_false_positive_rate",
    "fill_ratio",
]
