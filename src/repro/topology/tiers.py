"""The tier map: a concrete partition of one station order into regions.

:func:`build_tier_map` turns a :class:`~repro.topology.spec.TopologySpec`
plus the cluster's declared station order into the routing table every
round runs over.  The star is the one-level map: one region holding every
station, whose parent is the center itself, and no trunk.  A two-tier map
cuts the order into *contiguous slices* behind regional aggregators — this
is what makes two-tier rounds ranking-identical to flat-star rounds:
concatenating the regions' per-station report streams in region order
reproduces exactly the flat round's global station order, so the
aggregation phase sees the same input sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Sequence

from repro.core.exceptions import ConfigurationError
from repro.distributed.datacenter import DATA_CENTER_NODE_ID
from repro.topology.spec import TopologySpec


@dataclass(frozen=True)
class Region:
    """One regional slice: an aggregator and the stations behind it."""

    name: str
    #: The region's parent node: its aggregator, or the center in a star.
    aggregator_id: str
    #: The region's stations, a contiguous slice of the cluster order.
    station_ids: tuple[str, ...]
    #: Fault profile of the regional hop; ``None`` inherits the cluster plan.
    fault_profile: str | None = None


@dataclass(frozen=True)
class TierMap:
    """The full routing table of a deployment."""

    regions: tuple[Region, ...]
    #: Whether regional aggregators forward summaries to the center over a
    #: trunk hop; ``False`` for the star's one region under the center.
    has_trunk: bool

    @cached_property
    def _region_by_station(self) -> dict[str, Region]:
        return {sid: region for region in self.regions for sid in region.station_ids}

    def region_of(self, station_id: str) -> Region:
        """The region serving ``station_id``."""
        region = self._region_by_station.get(station_id)
        if region is None:
            raise KeyError(f"station {station_id!r} belongs to no region")
        return region

    @property
    def aggregator_ids(self) -> tuple[str, ...]:
        """Every aggregator id, in region order."""
        return tuple(region.aggregator_id for region in self.regions)

    def artifact_copies(self, station_ids: Collection[str]) -> int:
        """Artifact copies it costs to bring ``station_ids`` a new artifact.

        One per station, plus, with a trunk, one per affected region's
        aggregator.
        """
        copies = len(station_ids)
        if self.has_trunk:
            copies += len({self.region_of(sid).name for sid in station_ids})
        return copies


def region_slices(station_count: int, spec: TopologySpec) -> list[tuple[int, int]]:
    """The ``[start, stop)`` slice of each region over ``station_count`` stations.

    The remainder spreads over the leading regions, so sizes differ by at
    most one.  Raises :class:`ConfigurationError` when the deployment has
    fewer stations than the declared region count.
    """
    regions = spec.regions
    if regions > station_count:
        raise ConfigurationError(
            f"topology declares {regions} regions but the deployment has only "
            f"{station_count} stations; regions must not exceed stations"
        )
    base, remainder = divmod(station_count, regions)
    bounds = [0]
    for index in range(regions):
        bounds.append(bounds[-1] + base + (1 if index < remainder else 0))
    return [(bounds[index], bounds[index + 1]) for index in range(regions)]


def build_tier_map(
    station_order: Sequence[str], spec: TopologySpec
) -> TierMap:
    """Partition ``station_order`` into the spec's tier map.

    A star is one region of every station under the center, with no trunk.
    A two-tier spec gives each region slice its own aggregator, and the
    degraded regions their fault profile, under a trunk to the center.
    """
    order = [str(station_id) for station_id in station_order]
    if not spec.is_hierarchical:
        region = Region(
            name=spec.region_name(0),
            aggregator_id=DATA_CENTER_NODE_ID,
            station_ids=tuple(order),
        )
        return TierMap(regions=(region,), has_trunk=False)
    regions = []
    for index, (start, stop) in enumerate(region_slices(len(order), spec)):
        name = spec.region_name(index)
        regions.append(
            Region(
                name=name,
                aggregator_id=f"aggregator-{index}",
                station_ids=tuple(order[start:stop]),
                fault_profile=(
                    spec.degraded_profile if name in spec.degraded_regions else None
                ),
            )
        )
    return TierMap(regions=tuple(regions), has_trunk=True)
