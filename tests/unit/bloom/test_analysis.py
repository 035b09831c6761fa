"""Unit tests for Bloom-filter false-positive analysis."""

import math
from fractions import Fraction

import pytest

from repro.bloom.analysis import (
    expected_false_positive_rate,
    fill_ratio,
    probability_bit_zero,
)
from repro.bloom.standard import BloomFilter
from repro.core.wbf import WeightedBloomFilter


class TestClosedForms:
    def test_probability_bit_zero_empty_filter(self):
        assert probability_bit_zero(100, 3, 0) == 1.0

    def test_probability_bit_zero_decreases_with_items(self):
        assert probability_bit_zero(100, 3, 10) > probability_bit_zero(100, 3, 50)

    def test_fill_ratio_complements_zero_probability(self):
        assert fill_ratio(128, 4, 20) == pytest.approx(1 - probability_bit_zero(128, 4, 20))

    def test_fp_rate_zero_for_empty_filter(self):
        assert expected_false_positive_rate(100, 3, 0) == 0.0

    def test_fp_rate_monotone_in_items(self):
        rates = [expected_false_positive_rate(1024, 4, n) for n in (10, 100, 500)]
        assert rates == sorted(rates)

    def test_fill_ratio_rises_from_zero_towards_one(self):
        assert fill_ratio(64, 8, 0) == 0.0
        assert 0.9 < fill_ratio(64, 8, 20) < 1.0

    def test_fp_rate_is_the_fill_ratio_to_the_power_k(self):
        assert expected_false_positive_rate(300, 5, 40) == fill_ratio(300, 5, 40) ** 5

    def test_more_bits_lower_the_fp_rate(self):
        rates = [expected_false_positive_rate(m, 4, 100) for m in (512, 1024, 4096)]
        assert rates == sorted(rates, reverse=True) and len(set(rates)) == 3

    def test_filter_estimate_is_the_closed_form(self):
        bloom = BloomFilter(512, 3)
        bloom.add_many(range(40))
        assert bloom.estimated_false_positive_rate() == expected_false_positive_rate(512, 3, 40)

    def test_wbf_estimate_is_the_closed_form(self):
        wbf = WeightedBloomFilter(512, 3)
        wbf.add_many(range(40), Fraction(1, 2))
        assert wbf.estimated_false_positive_rate() == expected_false_positive_rate(512, 3, 40)

    def test_measured_fp_rate_tracks_the_closed_form(self):
        bloom = BloomFilter(2048, 4)
        bloom.add_many(range(200))
        probes = range(1_000_000, 1_020_000)
        measured = sum(bloom.contains_many(probes)) / len(probes)
        expected = expected_false_positive_rate(2048, 4, 200)
        assert 0.5 * expected < measured < 1.5 * expected

    def test_measured_fill_ratio_tracks_the_expectation(self):
        bloom = BloomFilter(4096, 4)
        bloom.add_many(range(300))
        assert bloom.fill_ratio() == pytest.approx(fill_ratio(4096, 4, 300), abs=0.03)

    def test_fp_rate_matches_exponential_approximation(self):
        m, k, n = 10_000, 5, 1_000
        exact = expected_false_positive_rate(m, k, n)
        approx = (1 - math.exp(-k * n / m)) ** k
        assert exact == pytest.approx(approx, rel=0.05)


class TestSizing:
    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            probability_bit_zero(0, 1, 1)

    def test_negative_item_count_rejected(self):
        with pytest.raises(ValueError):
            expected_false_positive_rate(100, 3, -1)
        with pytest.raises(ValueError):
            fill_ratio(100, 3, -1)
