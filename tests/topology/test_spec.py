"""TopologySpec validation: every bad layout fails at construction."""

from dataclasses import fields

import pytest

from repro.core.exceptions import ConfigurationError
from repro.topology import TOPOLOGY_KINDS, TopologySpec


class TestDefaults:
    def test_default_is_the_flat_star(self):
        spec = TopologySpec()
        assert spec.kind == "star"
        assert spec.regions == 1
        assert not spec.is_hierarchical

    def test_two_tier_is_hierarchical(self):
        assert TopologySpec(kind="two-tier", regions=2).is_hierarchical

    def test_kind_choices_are_exported(self):
        assert TOPOLOGY_KINDS == ("star", "two-tier")

    def test_region_names_are_canonical(self):
        spec = TopologySpec(kind="two-tier", regions=3)
        assert [spec.region_name(i) for i in range(3)] == [
            "region-0", "region-1", "region-2",
        ]


class TestValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="topology kind"):
            TopologySpec(kind="ring")

    def test_rejects_star_with_regions(self):
        with pytest.raises(ConfigurationError, match="no regional tier"):
            TopologySpec(kind="star", regions=2)

    @pytest.mark.parametrize(
        "knob",
        [
            {"degraded_regions": ("region-0",), "degraded_profile": "chaos"},
        ],
        ids=lambda knob: next(iter(knob)),
    )
    def test_rejects_star_with_regional_knobs(self, knob):
        with pytest.raises(ConfigurationError, match="no regional tier") as excinfo:
            TopologySpec(kind="star", **knob)
        assert next(iter(knob)) in str(excinfo.value)

    @pytest.mark.parametrize("regions", [0, -1, True, 1.5])
    def test_rejects_bad_region_counts(self, regions):
        with pytest.raises(ConfigurationError, match="regions must be"):
            TopologySpec(kind="two-tier", regions=regions)

    def test_rejects_unknown_degraded_profile(self):
        with pytest.raises(ConfigurationError, match="degraded_profile"):
            TopologySpec(
                kind="two-tier", regions=2,
                degraded_regions=("region-0",), degraded_profile="thunderstorm",
            )

    def test_rejects_unknown_region_names(self):
        with pytest.raises(ConfigurationError, match="unknown region"):
            TopologySpec(kind="two-tier", regions=2, degraded_regions=("region-9",))

    def test_rejects_non_string_region_tuples(self):
        with pytest.raises(ConfigurationError, match="tuple of region names"):
            TopologySpec(kind="two-tier", regions=2, degraded_regions=(0,))

    def test_with_updates_revalidates(self):
        spec = TopologySpec(kind="two-tier", regions=2)
        assert spec.with_updates(regions=3).regions == 3
        with pytest.raises(ConfigurationError):
            spec.with_updates(regions=0)


class TestFieldSet:
    def test_a_topology_has_four_fields(self):
        # Balanced slicing is the one partition, and the tenant count is the
        # workload's number of query streams: neither is a topology setting.
        assert [spec_field.name for spec_field in fields(TopologySpec)] == [
            "kind", "regions", "degraded_regions", "degraded_profile",
        ]

    @pytest.mark.parametrize("knob", ["stations_per_region", "tenant_count"])
    def test_removed_fields_are_refused(self, knob):
        with pytest.raises(TypeError, match=knob):
            TopologySpec(kind="two-tier", regions=2, **{knob: 2})
