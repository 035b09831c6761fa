"""Delta sessions over the two-tier tree: parity, dirty tracking, accounting.

A continuous session in ``deltas`` mode ships only dirty stations' cached
reports.  Under a two-tier topology the shipment climbs region → trunk and a
station is settled (marked clean) only when its region's re-encoded summary
actually reached the center — the trunk-gated exactly-once rule — while the
rankings every step serves must stay identical to the flat star's.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.cluster.spec import TransportSpec
from repro.distributed.events import RoundTimeoutError
from repro.topology import TopologySpec

from .conftest import make_spec, open_cluster

TWO_TIER = TopologySpec(kind="two-tier", regions=2)


def _ranking(report):
    return [(entry.user_id, entry.score) for entry in report.results]


def _publish_all(session, dataset):
    """Stations enter a delta session through publish(), like the engine."""
    for station_id in dataset.station_ids:
        session.publish(station_id, dataset.local_patterns_at(station_id))


class TestDeltaParity:
    def test_step_rankings_match_the_flat_star(self, dataset, queries):
        rankings = {}
        for label, topology in (("flat", None), ("two-tier", TWO_TIER)):
            with open_cluster(dataset, topology=topology) as cluster:
                cluster.subscribe(queries)
                with cluster.open_session(mode="deltas") as session:
                    _publish_all(session, dataset)
                    rankings[label] = _ranking(session.step())
        assert rankings["flat"]
        assert rankings["two-tier"] == rankings["flat"]

    def test_republish_step_matches_the_flat_star(self, dataset, queries):
        station = dataset.station_ids[0]
        rankings = {}
        for label, topology in (("flat", None), ("two-tier", TWO_TIER)):
            with open_cluster(dataset, topology=topology) as cluster:
                cluster.subscribe(queries)
                with cluster.open_session(mode="deltas") as session:
                    _publish_all(session, dataset)
                    session.step()
                    session.publish(station, dataset.local_patterns_at(station))
                    rankings[label] = _ranking(session.step())
        assert rankings["two-tier"] == rankings["flat"]


class TestDirtyTracking:
    def test_clean_steps_ship_nothing(self, dataset, queries):
        with open_cluster(dataset, topology=TWO_TIER) as cluster:
            cluster.subscribe(queries)
            with cluster.open_session(mode="deltas") as session:
                _publish_all(session, dataset)
                first = session.step()
                assert first.mode == "delta"
                assert set(first.delivered_station_ids) == set(dataset.station_ids)
                second = session.step()
        # Nothing changed between steps: the dirty ledger is empty, so the
        # second shipment moves zero stations and zero uplink bytes.
        assert second.delivered_station_ids == ()
        assert second.uplink_bytes == 0
        assert second.lost_station_count == 0
        assert _ranking(second) == _ranking(first)

    def test_only_the_dirty_station_reships(self, dataset, queries):
        station = dataset.station_ids[0]
        with open_cluster(dataset, topology=TWO_TIER) as cluster:
            cluster.subscribe(queries)
            with cluster.open_session(mode="deltas") as session:
                _publish_all(session, dataset)
                session.step()
                session.publish(station, dataset.local_patterns_at(station))
                assert session.dirty_station_ids == (station,)
                report = session.step()
                assert report.delivered_station_ids == (station,)
                assert session.dirty_station_ids == ()

    def test_rotation_downlink_charges_stations_plus_aggregators(
        self, dataset, queries
    ):
        """A rotated artifact fans out trunk→aggregators→stations: the tree
        charges one extra artifact copy per region on top of the flat star's
        one copy per active station."""
        station_count = len(dataset.station_ids)
        downlink = {}
        for label, topology in (("flat", None), ("two-tier", TWO_TIER)):
            with open_cluster(dataset, topology=topology) as cluster:
                cluster.subscribe(queries)
                with cluster.open_session(mode="deltas") as session:
                    _publish_all(session, dataset)
                    session.step()
                    session.subscribe(queries)  # rotation: every station re-downloads
                    downlink[label] = session.step().downlink_bytes
        assert downlink["flat"] > 0
        # flat = artifact * stations; two-tier = artifact * (stations + regions)
        assert (
            downlink["two-tier"] * station_count
            == downlink["flat"] * (station_count + TWO_TIER.regions)
        )


class TestDeterminism:
    def test_two_tier_delta_transcripts_replay(self, dataset, queries):
        transcripts = []
        for _ in range(2):
            with open_cluster(dataset, topology=TWO_TIER) as cluster:
                cluster.subscribe(queries)
                with cluster.open_session(mode="deltas") as session:
                    _publish_all(session, dataset)
                    session.step()
                    station = dataset.station_ids[-1]
                    session.publish(station, dataset.local_patterns_at(station))
                    session.step()
                transcripts.append(cluster.transcript_digest())
        assert transcripts[0] == transcripts[1]

    @pytest.mark.parametrize("method", ["wbf", "bf", "local"])
    def test_delta_parity_across_report_protocols(self, dataset, queries, method):
        outcomes = {}
        for label, topology in (("flat", None), ("two-tier", TWO_TIER)):
            with open_cluster(dataset, method=method, topology=topology) as cluster:
                cluster.subscribe(queries)
                with cluster.open_session(mode="deltas") as session:
                    _publish_all(session, dataset)
                    report = session.step()
                    outcomes[label] = (
                        _ranking(report), set(report.delivered_station_ids)
                    )
        if method != "local":  # local-only serves no center rankings here
            assert outcomes["flat"][0]
        assert outcomes["two-tier"] == outcomes["flat"]

    @pytest.mark.parametrize("topology", [None, TWO_TIER], ids=["flat", "two-tier"])
    @pytest.mark.parametrize("method", ["wbf", "bf", "local", "naive"])
    def test_delta_steps_match_a_full_drive(self, dataset, queries, method, topology):
        """Fault-free, a delta step serves exactly the ranking a full wire
        round computes over the same stations — also after a station
        vanishes and returns."""
        station = dataset.station_ids[0]
        with open_cluster(dataset, method=method, topology=topology) as cluster:
            cluster.subscribe(queries)
            with cluster.open_session(mode="deltas") as session:
                _publish_all(session, dataset)
                first = session.step().results
                session.retire(station)
                session.step()
                session.publish(station, dataset.local_patterns_at(station))
                returned = session.step().results
            full = cluster.drive(cluster.protocol, queries).results
        assert first == full
        assert returned == full


class TestTimeoutSettlement:
    @pytest.mark.parametrize(
        ("topology", "failure"),
        [(None, "uplink transfer"), (TWO_TIER, "trunk delta uplink failed: ")],
        ids=["flat", "two-tier"],
    )
    def test_a_timed_out_step_still_ranks_what_delivered(
        self, dataset, queries, topology, failure
    ):
        """A strict-network timeout settles the stations whose delta reached
        the center — in the dirty ledger *and* in the ranking — before it
        raises, so the retry ships only the rest and the final ranking is
        the fault-free one."""
        with open_cluster(dataset, topology=topology) as reference:
            reference.subscribe(queries)
            expected = _ranking(reference.round())
        spec = make_spec(topology=topology, profile="lossy").with_updates(
            transport=TransportSpec(max_attempts=1)
        )
        with Cluster(spec, dataset=dataset) as cluster:
            cluster.subscribe(queries)
            with cluster.open_session(mode="deltas") as session:
                _publish_all(session, dataset)
                with pytest.raises(RoundTimeoutError, match=failure):
                    session.step(net_seed=0)
                pending = session.dirty_station_ids
                assert 0 < len(pending) < len(dataset.station_ids)
                retry = session.step(net_seed=1)
                assert set(retry.delivered_station_ids) == set(pending)
                assert session.dirty_station_ids == ()
        assert _ranking(retry) == expected
