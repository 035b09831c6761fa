"""Two-tier rounds over real sockets: the regional tier is transport-invariant.

The hierarchical router drives each region's hop over an ordinary
:class:`~repro.distributed.transport.base.Transport`, so the conformance
contract extends unchanged: a fault-free two-tier round over TCP must be
observationally identical to the simulator — same rankings, same per-tier
byte and frame ledgers.  The trunk hop rides the simulator under both
backends (aggregators are co-resident with the center; the sanctioned
divergence documented in docs/topology.md), which these tests observe as
byte-identical trunk rows.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.topology import TopologySpec

from .conftest import make_spec

pytestmark = pytest.mark.transport

TWO_TIER = TopologySpec(kind="two-tier", regions=2)


def _open_two_tier(dataset, transport: str) -> Cluster:
    spec = make_spec(transport).with_updates(topology=TWO_TIER)
    return Cluster(spec, dataset=dataset)


def _tier_ledger(costs):
    return [
        (
            tier.tier,
            tier.downlink_bytes,
            tier.uplink_bytes,
            tier.message_count,
            tier.retransmit_count,
        )
        for tier in costs.tiers
    ]


class TestTwoTierConformance:
    def test_two_tier_round_is_transport_invariant(self, dataset, batch_a):
        outcomes = {}
        for transport in ("sim", "tcp"):
            with _open_two_tier(dataset, transport) as cluster:
                cluster.subscribe(batch_a)
                report = cluster.round(net_seed=5)
                outcomes[transport] = {
                    "results": report.results,
                    "downlink": report.downlink_bytes,
                    "uplink": report.uplink_bytes,
                    "ingress": report.costs.center_ingress_bytes,
                    "tiers": _tier_ledger(report.costs),
                    "reports": report.costs.report_count,
                    "goodput": report.goodput_fraction,
                }
        assert outcomes["tcp"] == outcomes["sim"]

    def test_two_tier_matches_flat_star_rankings_over_tcp(self, dataset, batch_a):
        reports = {}
        for topology in (None, TWO_TIER):
            spec = make_spec("tcp").with_updates(topology=topology)
            with Cluster(spec, dataset=dataset) as cluster:
                cluster.subscribe(batch_a)
                reports[topology is None] = cluster.round(net_seed=5)
        flat, tiered = reports[True], reports[False]
        assert [
            (entry.user_id, entry.score) for entry in tiered.results
        ] == [(entry.user_id, entry.score) for entry in flat.results]
        assert tiered.costs.center_ingress_bytes < flat.costs.center_ingress_bytes

    def test_two_tier_delta_session_is_transport_invariant(self, dataset, batch_a):
        outcomes = {}
        for transport in ("sim", "tcp"):
            with _open_two_tier(dataset, transport) as cluster:
                cluster.subscribe(batch_a)
                with cluster.open_session(mode="deltas") as session:
                    for station_id in dataset.station_ids:
                        session.publish(
                            station_id, dataset.local_patterns_at(station_id)
                        )
                    report = session.step(net_seed=5)
                    outcomes[transport] = {
                        "results": report.results,
                        "delivered": report.delivered_station_ids,
                        "uplink": report.uplink_bytes,
                        "lost": report.lost_station_count,
                    }
        assert outcomes["tcp"] == outcomes["sim"]
