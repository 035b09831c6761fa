"""Hierarchical deployment topologies: regional aggregation above the stations.

The paper's flat star (one center, N one-hop stations) stops scaling when
every report must cross a single center ingress.  This package adds the
two-tier layout: stations are partitioned into contiguous *regions*, each
behind a :class:`RegionalAggregator` that unions its region's match reports
into one deduplicated, re-encoded summary — so the center's ingress carries
one summary per region instead of one report stream per station, while a
fault-free round still ranks byte-identically to the flat star (the parity
suite pins this across all four protocols).

Layering: ``topology`` sits between ``distributed`` (whose transports,
messages and nodes it routes) and ``cluster`` (whose facade drives every
round through :func:`run_two_tier_round` and every delta step through
:func:`ship_two_tier_deltas` — the flat star is the trunkless one-level tier
map); the workload layer above binds tenants and scenarios to it.
"""

from repro.topology.aggregator import RegionalAggregator, dedupe_weighted_reports
from repro.topology.router import (
    REGION_SEED_LABEL,
    TRUNK_SEED_LABEL,
    TwoTierDeltaResult,
    TwoTierRoundResult,
    run_two_tier_round,
    ship_two_tier_deltas,
)
from repro.topology.spec import TOPOLOGY_KINDS, TopologySpec
from repro.topology.tiers import Region, TierMap, build_tier_map, region_slices

__all__ = [
    "TOPOLOGY_KINDS",
    "TopologySpec",
    "Region",
    "TierMap",
    "build_tier_map",
    "region_slices",
    "RegionalAggregator",
    "dedupe_weighted_reports",
    "TwoTierDeltaResult",
    "TwoTierRoundResult",
    "run_two_tier_round",
    "ship_two_tier_deltas",
    "REGION_SEED_LABEL",
    "TRUNK_SEED_LABEL",
]
