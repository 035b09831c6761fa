"""Unit tests for DIMatchingConfig."""

from dataclasses import fields

import pytest

from repro.core.config import DIMatchingConfig
from repro.core.exceptions import ConfigurationError


class TestDefaults:
    def test_paper_defaults(self):
        config = DIMatchingConfig()
        assert config.sample_count == 12
        assert config.hash_count == 4
        assert config.epsilon == 0

    def test_is_frozen(self):
        config = DIMatchingConfig()
        with pytest.raises(AttributeError):
            config.sample_count = 5


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sample_count": 0},
            {"hash_count": 0},
            {"epsilon": -1},
            {"bit_count": 0},
            {"bits_per_element": 0},
            {"min_bit_count": 0},
            {"max_local_patterns": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            DIMatchingConfig(**kwargs)

    def test_non_integer_epsilon_rejected(self):
        with pytest.raises(ConfigurationError):
            DIMatchingConfig(epsilon=1.5)

    def test_invalid_tolerance_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            DIMatchingConfig(epsilon_tolerance_mode="weird")

    def test_valid_tolerance_modes(self):
        assert DIMatchingConfig(epsilon_tolerance_mode="interval")
        assert DIMatchingConfig(epsilon_tolerance_mode="accumulated")


class TestFilterSizing:
    def test_auto_size_scales_with_items(self):
        config = DIMatchingConfig(auto_size=True, bits_per_element=10, min_bit_count=64)
        assert config.filter_bit_count(1000) == 10_000

    def test_auto_size_respects_minimum(self):
        config = DIMatchingConfig(auto_size=True, bits_per_element=10, min_bit_count=4096)
        assert config.filter_bit_count(10) == 4096

    def test_fixed_size(self):
        config = DIMatchingConfig(auto_size=False, bit_count=8192)
        assert config.filter_bit_count(10_000) == 8192


class TestWithUpdates:
    def test_returns_modified_copy(self):
        base = DIMatchingConfig(sample_count=12)
        updated = base.with_updates(sample_count=5)
        assert updated.sample_count == 5
        assert base.sample_count == 12

    def test_updates_are_validated(self):
        with pytest.raises(ConfigurationError):
            DIMatchingConfig().with_updates(sample_count=-1)


class TestConfigBoundary:
    def test_holds_only_the_wire_fields(self):
        # Deployment knobs (executor, shards, fault profile, net seed) live on
        # the cluster specs; the protocol config is what the filter means.
        from repro.wire.codec import _CONFIG_WIRE_FIELDS

        names = {field.name for field in fields(DIMatchingConfig)}
        assert names == set(_CONFIG_WIRE_FIELDS)

    @pytest.mark.parametrize("knob", ["executor", "shard_count", "fault_profile", "net_seed"])
    def test_deployment_knobs_are_refused(self, knob):
        # A caller still spelling a deployment knob on the protocol config
        # gets a loud error instead of a setting that silently does nothing.
        with pytest.raises(TypeError, match=knob):
            DIMatchingConfig(**{knob: 1})
        with pytest.raises(TypeError, match=knob):
            DIMatchingConfig().with_updates(**{knob: 1})
