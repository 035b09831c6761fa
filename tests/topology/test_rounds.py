"""Two-tier rounds: ranking parity with the flat star, per-tier accounting.

The parity claim is the subsystem's core invariant — the regional tier is a
*routing* change: regions are contiguous slices of the station order and
every inbox is consumed in canonical order, so a fault-free two-tier round
feeds the center's aggregation phase exactly the flat round's report
sequence, for all four protocols.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.cluster import Cluster
from repro.cluster.spec import PROTOCOL_METHODS
from repro.distributed.events import transcript_to_bytes
from repro.distributed.faults import FaultPlan
from repro.topology import TopologySpec

from .conftest import make_spec, open_cluster

TWO_TIER = TopologySpec(kind="two-tier", regions=2)


def _ranking(report):
    return [(entry.user_id, entry.score) for entry in report.results]


def _det_costs(costs):
    """The cost report minus its wall-clock compute timings.

    Everything else — bytes, counts, the virtual transmission time, the
    per-tier ledger — is a pure function of (city, queries, net seed).
    """
    return replace(
        costs, encode_time_s=0.0, station_time_s=0.0, aggregate_time_s=0.0
    )


def _run_round(dataset, queries, **kwargs):
    with open_cluster(dataset, **kwargs) as cluster:
        cluster.subscribe(queries)
        return cluster.round(k=None)


class TestRankingParity:
    @pytest.mark.parametrize("method", PROTOCOL_METHODS)
    def test_two_tier_matches_flat_star_rankings(self, dataset, queries, method):
        flat = _run_round(dataset, queries, method=method)
        tiered = _run_round(dataset, queries, method=method, topology=TWO_TIER)
        assert _ranking(tiered) == _ranking(flat)

    def test_star_topology_is_the_flat_engine_byte_for_byte(self, dataset, queries):
        flat = _run_round(dataset, queries)
        star = _run_round(dataset, queries, topology=TopologySpec(kind="star"))
        assert star.transcript == flat.transcript
        assert _det_costs(star.costs) == _det_costs(flat.costs)
        assert _ranking(star) == _ranking(flat)

    def test_two_tier_rounds_replay_deterministically(self, dataset, queries):
        first = _run_round(dataset, queries, topology=TWO_TIER)
        second = _run_round(dataset, queries, topology=TWO_TIER)
        assert second.transcript == first.transcript
        assert _det_costs(second.costs) == _det_costs(first.costs)


def _digest(transcript) -> str:
    return hashlib.sha256(transcript_to_bytes(list(transcript))).hexdigest()


class TestEmptyHops:
    """A flat round runs its downlink and uplink phases even when they carry
    nothing, and the empty phase markers are part of the replay token.  The
    digests were recorded from the original flat engine."""

    def test_a_round_without_participants_keeps_its_phase_markers(
        self, dataset, queries
    ):
        with open_cluster(dataset) as cluster:
            cluster.subscribe(queries)
            report = cluster.round(station_ids=[])
        assert report.active_station_count == 0
        assert _digest(report.transcript) == (
            "142bab8a7433f8412d8b0ebe04f7b2191d6421ee87124119cdb7aac66e6a523d"
        )

    def test_a_round_whose_downlink_is_blacked_out_keeps_its_uplink_marker(
        self, dataset, queries
    ):
        blackout = FaultPlan(
            name="custom",
            blackout_probability=1.0,
            blackout_start_s=0.0,
            blackout_end_s=600.0,
        )
        with Cluster.adopt(dataset, fault_plan=blackout, allow_partial=True) as cluster:
            outcome = cluster.drive(make_spec().protocol.build(), queries)
        assert outcome.costs.lost_station_count == len(dataset.station_ids)
        assert _digest(outcome.transcript) == (
            "3949257265c0d3cf8a0ad40a7f447a978e99a1c06b3120c0de40a5d7ddf2b0ff"
        )


class TestTierAccounting:
    def test_flat_rounds_carry_no_tier_ledger(self, dataset, queries):
        assert _run_round(dataset, queries).costs.tiers == ()

    def test_tier_ledger_lists_trunk_then_regions_in_order(self, dataset, queries):
        costs = _run_round(dataset, queries, topology=TWO_TIER).costs
        assert [tier.tier for tier in costs.tiers] == [
            "trunk", "region-0", "region-1",
        ]

    def test_tier_bytes_sum_to_the_round_totals(self, dataset, queries):
        costs = _run_round(dataset, queries, topology=TWO_TIER).costs
        assert sum(t.downlink_bytes for t in costs.tiers) == costs.downlink_bytes
        assert sum(t.uplink_bytes for t in costs.tiers) == costs.uplink_bytes
        assert sum(t.message_count for t in costs.tiers) == costs.message_count

    def test_center_ingress_is_the_trunk_uplink_and_shrinks(self, dataset, queries):
        flat = _run_round(dataset, queries).costs
        tiered = _run_round(dataset, queries, topology=TWO_TIER).costs
        trunk = next(t for t in tiered.tiers if t.tier == "trunk")
        assert flat.center_ingress_bytes == flat.uplink_bytes
        assert tiered.center_ingress_bytes == trunk.uplink_bytes
        assert tiered.center_ingress_bytes < flat.center_ingress_bytes

    def test_report_counts_survive_aggregation(self, dataset, queries):
        flat = _run_round(dataset, queries).costs
        tiered = _run_round(dataset, queries, topology=TWO_TIER).costs
        # WBF reports carry no exact duplicates in this city, so the
        # deduplicating union must forward every report the flat round saw.
        assert tiered.report_count == flat.report_count


class TestDegradedRegion:
    DEGRADED = TopologySpec(
        kind="two-tier", regions=2,
        degraded_regions=("region-1",), degraded_profile="lossy",
    )

    def test_faults_stay_contained_behind_the_degraded_aggregator(
        self, dataset, queries
    ):
        with open_cluster(
            dataset, topology=self.DEGRADED, allow_partial=True, net_seed=1
        ) as cluster:
            cluster.subscribe(queries)
            costs = cluster.round(k=None).costs
        by_name = {tier.tier: tier for tier in costs.tiers}
        # The clean tiers never retransmit or drop; only the lossy regional
        # hop may (its per-tier rows are how containment is observable).
        for name in ("trunk", "region-0"):
            assert by_name[name].retransmit_count == 0
            assert by_name[name].dropped_frame_count == 0
        assert (
            by_name["region-1"].retransmit_count
            + by_name["region-1"].dropped_frame_count
        ) > 0

    def test_degraded_rounds_replay_deterministically(self, dataset, queries):
        ledgers = []
        for _ in range(2):
            with open_cluster(
                dataset, topology=self.DEGRADED, allow_partial=True, net_seed=1
            ) as cluster:
                cluster.subscribe(queries)
                report = cluster.round(k=None)
                ledgers.append(
                    (report.transcript, _det_costs(report.costs), _ranking(report))
                )
        assert ledgers[0] == ledgers[1]
