"""The codec is the one size model: how each artifact's encoded size is made up.

Every storage and traffic figure a round reports is a codec byte count
(``CostReport.storage_*`` is built from :func:`repro.wire.encoded_size`, the
transports charge encoded frames), so these tests pin the arithmetic of each
artifact's encoding: a 7-byte header, then length-prefixed strings and varint
fields.  Short strings take one length byte, and a varint takes one byte
below 128 (unsigned) or below 64 in magnitude (zigzag-signed).
"""

from fractions import Fraction

import pytest

from repro import wire
from repro.bloom.standard import BloomFilter
from repro.core.config import DIMatchingConfig
from repro.core.encoder import PatternEncoder
from repro.core.protocol import MatchReport
from repro.core.wbf import WeightedBloomFilter
from repro.timeseries.pattern import LocalPattern, Pattern
from repro.timeseries.query import QueryPattern

HEADER = 7  # magic, version, flags, type tag


def short_str(text: str) -> int:
    """Encoded size of a string shorter than 128 UTF-8 bytes."""
    return 1 + len(text.encode("utf-8"))


def body(obj: object) -> bytes:
    return wire.encode(obj)[HEADER:]


class TestFilterSizes:
    @pytest.mark.parametrize(
        "bit_count, expected",
        [
            (64, HEADER + 4 + 8),  # m, k, seed and item count: one byte each
            (65, HEADER + 4 + 9),  # a partial last byte is stored whole
            (1024, HEADER + 5 + 128),  # m = 1024 takes a two-byte varint
        ],
    )
    def test_bloom_filter_is_four_fields_and_its_bit_array(self, bit_count, expected):
        assert wire.encoded_size(BloomFilter(bit_count, 4)) == expected

    def test_bloom_filter_size_is_fixed_by_its_bit_count(self):
        bloom = BloomFilter(1024, 4)
        empty = wire.encoded_size(bloom)
        bloom.add_many(range(100))
        # Only the bits and the one-byte item count changed.
        assert wire.encoded_size(bloom) == empty

    def test_wbf_body_starts_with_the_plain_filter_body(self):
        bloom = BloomFilter(512, 3, seed=4)
        wbf = WeightedBloomFilter(512, 3, seed=4)
        bloom.add_many(range(20))
        wbf.add_many(range(20), Fraction(1, 2))
        assert body(wbf).startswith(body(bloom))
        assert wire.encoded_size(wbf) > wire.encoded_size(bloom)

    def test_wbf_stores_each_weight_once_and_one_index_per_set_bit(self):
        wbf = WeightedBloomFilter(1024, 4)
        wbf.add_many(range(10), Fraction(1, 2))
        set_bits = len(wbf.weight_entries())
        table = 1 + 3  # entry count; value tag, numerator, denominator
        per_bit = 2  # index count, index
        assert wire.encoded_size(wbf) == HEADER + 5 + 128 + table + per_bit * set_bits

    def test_repeating_a_weight_adds_no_table_entry(self):
        once = WeightedBloomFilter(1024, 4)
        twice = WeightedBloomFilter(1024, 4)
        once.add_many(range(10), Fraction(1, 2))
        twice.add_many(range(10), Fraction(1, 2))
        twice.add_many(range(10), Fraction(1, 2))
        # Same bits, same weight sets; only the one-byte item count differs.
        assert wire.encoded_size(twice) == wire.encoded_size(once)

    def test_compression_shrinks_a_sparse_filter(self):
        bloom = BloomFilter(8192, 3)
        bloom.add_many(range(10))
        assert len(wire.encode(bloom, compress=True)) < wire.encoded_size(bloom)


class TestBatchSize:
    def test_batch_ends_with_its_filter_body(self):
        query = QueryPattern("q1", [LocalPattern("alice", [1, 0, 2, 1], "bs-1")])
        batch = PatternEncoder(DIMatchingConfig()).encode_batch([query])
        frame = wire.encode(batch)
        assert frame.endswith(body(batch.wbf))
        assert wire.encoded_size(batch) == len(frame)

    def test_batch_overhead_is_the_config_block_and_four_counts(self):
        encoder = PatternEncoder(DIMatchingConfig())
        small = encoder.encode_batch(
            [QueryPattern("q1", [LocalPattern("alice", [1, 0, 2, 1], "bs-1")])]
        )
        large = encoder.encode_batch(
            [
                QueryPattern("q1", [LocalPattern("alice", [1, 0, 2, 1], "bs-1")]),
                QueryPattern("q2", [LocalPattern("bob", [3, 1, 0, 2], "bs-2")]),
            ]
        )
        # The counts stay below 128, so the overhead does not depend on the queries.
        overheads = {
            wire.encoded_size(batch) - len(body(batch.wbf)) for batch in (small, large)
        }
        assert len(overheads) == 1


class TestReportSizes:
    def test_weightless_report_is_three_strings_and_a_flag(self):
        report = MatchReport("u", "s")
        assert wire.encoded_size(report) == HEADER + short_str("u") + short_str("s") + 1 + 1

    def test_weight_adds_its_numerator_and_denominator(self):
        weightless = MatchReport("u", "s", query_id="q")
        weighted = MatchReport("u", "s", weight=Fraction(1, 3), query_id="q")
        assert wire.encoded_size(weighted) == wire.encoded_size(weightless) + 2


class TestPatternSizes:
    @pytest.mark.parametrize("length", [1, 4, 96])
    def test_pattern_takes_one_byte_per_small_interval(self, length):
        pattern = Pattern("u1", [1] * length)
        assert wire.encoded_size(pattern) == HEADER + short_str("u1") + 1 + length

    def test_large_interval_values_take_wider_varints(self):
        small = Pattern("u1", [1, 1])
        large = Pattern("u1", [1, 1000])  # zigzag 2000 needs two bytes
        assert wire.encoded_size(large) == wire.encoded_size(small) + 1

    def test_local_pattern_adds_its_station_id(self):
        values = [3, 0, 1, 2]
        plain = Pattern("u1", values)
        local = LocalPattern("u1", values, "bs-1")
        assert wire.encoded_size(local) == wire.encoded_size(plain) + short_str("bs-1")

    def test_station_storage_sums_its_patterns(self):
        patterns = [
            LocalPattern("alice", [1, 0, 2], "bs-1"),
            LocalPattern("bob", [0, 4, 0], "bs-1"),
            LocalPattern("carol", [2, 2, 2], "bs-1"),
        ]
        # Layout byte and count, then each pattern as a type tag plus its body.
        expected = HEADER + 2 + sum(1 + len(body(p)) for p in patterns)
        assert wire.encoded_size(patterns) == expected

    def test_query_carries_every_local_fragment(self):
        locals_ = [
            LocalPattern("alice", [1, 0, 2], "bs-1"),
            LocalPattern("alice", [0, 3, 0], "bs-2"),
        ]
        query = QueryPattern("q1", locals_)
        expected = HEADER + short_str("q1") + 1 + sum(len(body(p)) for p in locals_)
        assert wire.encoded_size(query) == expected
