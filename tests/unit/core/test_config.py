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
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            DIMatchingConfig(**kwargs)

    def test_non_integer_epsilon_rejected(self):
        with pytest.raises(ConfigurationError):
            DIMatchingConfig(epsilon=1.5)


class TestFieldTypes:
    """Counts are integers and switches are bools, so the wire says what runs."""

    @pytest.mark.parametrize("name", ["sample_count", "hash_count"])
    @pytest.mark.parametrize("value", [2.5, 4.0, True, "4", None])
    def test_counts_must_be_integers(self, name, value):
        # hash_count=2.5 once built a 2-function filter under a config (and
        # wire bytes) saying 2.5; sample_count=2.5 failed late with a TypeError.
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
            DIMatchingConfig(**{name: value})

    @pytest.mark.parametrize("name", ["include_sample_index", "use_accumulation"])
    @pytest.mark.parametrize("value", ["no", 0, 1, None])
    def test_switches_must_be_bools(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must be a bool"):
            DIMatchingConfig(**{name: value})

    @pytest.mark.parametrize("value", [True, False])
    def test_epsilon_must_not_be_a_bool(self, value):
        with pytest.raises(ConfigurationError, match="epsilon"):
            DIMatchingConfig(epsilon=value)

    def test_well_typed_values_are_kept(self):
        config = DIMatchingConfig(
            sample_count=3, hash_count=2, epsilon=1,
            include_sample_index=False, use_accumulation=False,
        )
        assert (config.sample_count, config.hash_count, config.epsilon) == (3, 2, 1)
        assert config.include_sample_index is False
        assert config.use_accumulation is False


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
        # The codec's other slots are retired and carry fixed values.
        from repro.wire.codec import _CONFIG_SLOTS

        names = [field.name for field in fields(DIMatchingConfig)]
        assert names == [slot for slot in _CONFIG_SLOTS if isinstance(slot, str)]
        assert names == [
            "sample_count", "hash_count", "epsilon", "include_sample_index", "use_accumulation",
        ]

    @pytest.mark.parametrize("knob", ["executor", "shard_count", "fault_profile", "net_seed"])
    def test_deployment_knobs_are_refused(self, knob):
        # A caller still spelling a deployment knob on the protocol config
        # gets a loud error instead of a setting that silently does nothing.
        with pytest.raises(TypeError, match=knob):
            DIMatchingConfig(**{knob: 1})
        with pytest.raises(TypeError, match=knob):
            DIMatchingConfig().with_updates(**{knob: 1})

    @pytest.mark.parametrize(
        "knob",
        [
            "bit_count", "auto_size", "bits_per_element", "min_bit_count", "seed",
            "expand_epsilon", "epsilon_tolerance_mode", "deduplicate_combinations",
            "max_local_patterns",
        ],
    )
    def test_retired_settings_are_refused(self, knob):
        # Filter sizing, the hash seed and the Algorithm-1 variants are the
        # encoder's constants now; spelling one is an error, not a no-op.
        with pytest.raises(TypeError, match=knob):
            DIMatchingConfig(**{knob: 1})
        with pytest.raises(TypeError, match=knob):
            DIMatchingConfig().with_updates(**{knob: 1})
        assert not hasattr(DIMatchingConfig, "filter_bit_count")
