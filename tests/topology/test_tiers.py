"""The tier map: station orders partition into contiguous regional slices."""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.distributed.datacenter import DATA_CENTER_NODE_ID
from repro.topology import TopologySpec, build_tier_map, region_slices

STATIONS = tuple(f"s{i}" for i in range(5))


class TestRegionSlices:
    def test_balanced_split_spreads_the_remainder_forward(self):
        spec = TopologySpec(kind="two-tier", regions=2)
        assert region_slices(5, spec) == [(0, 3), (3, 5)]

    def test_balanced_split_covers_exactly(self):
        spec = TopologySpec(kind="two-tier", regions=3)
        slices = region_slices(7, spec)
        assert slices == [(0, 3), (3, 5), (5, 7)]
        assert slices[0][0] == 0 and slices[-1][1] == 7
        assert all(a[1] == b[0] for a, b in zip(slices, slices[1:]))

    @pytest.mark.parametrize("station_count", [1, 2, 7, 100, 101])
    def test_balanced_sizes_differ_by_at_most_one(self, station_count):
        for regions in range(1, station_count + 1):
            slices = region_slices(station_count, TopologySpec(kind="two-tier", regions=regions))
            sizes = [stop - start for start, stop in slices]
            assert slices[0][0] == 0 and sum(sizes) == station_count
            assert all(a[1] == b[0] for a, b in zip(slices, slices[1:]))
            assert sizes == sorted(sizes, reverse=True)
            assert sizes[0] - sizes[-1] <= 1

    def test_rejects_more_regions_than_stations(self):
        spec = TopologySpec(kind="two-tier", regions=6)
        with pytest.raises(ConfigurationError, match="must not exceed stations"):
            region_slices(5, spec)


class TestBuildTierMap:
    def test_regions_are_contiguous_slices_in_order(self):
        tier_map = build_tier_map(STATIONS, TopologySpec(kind="two-tier", regions=2))
        assert [r.name for r in tier_map.regions] == ["region-0", "region-1"]
        assert tier_map.regions[0].station_ids == ("s0", "s1", "s2")
        assert tier_map.regions[1].station_ids == ("s3", "s4")
        assert tier_map.aggregator_ids == ("aggregator-0", "aggregator-1")

    def test_region_of_resolves_every_station(self):
        tier_map = build_tier_map(STATIONS, TopologySpec(kind="two-tier", regions=2))
        assert tier_map.region_of("s2").name == "region-0"
        assert tier_map.region_of("s3").name == "region-1"
        with pytest.raises(KeyError):
            tier_map.region_of("s99")

    def test_a_star_is_one_trunkless_region_under_the_center(self):
        tier_map = build_tier_map(STATIONS, TopologySpec())
        assert not tier_map.has_trunk
        (region,) = tier_map.regions
        assert region.station_ids == STATIONS
        assert region.aggregator_id == DATA_CENTER_NODE_ID
        assert region.fault_profile is None
        assert tier_map.region_of("s4") is region
        assert build_tier_map(STATIONS, TopologySpec(kind="two-tier", regions=2)).has_trunk

    def test_degraded_region_carries_its_profile(self):
        tier_map = build_tier_map(
            STATIONS,
            TopologySpec(
                kind="two-tier", regions=2,
                degraded_regions=("region-1",), degraded_profile="lossy",
            ),
        )
        assert tier_map.regions[0].fault_profile is None
        assert tier_map.regions[1].fault_profile == "lossy"
