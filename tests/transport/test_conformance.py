"""Cross-transport conformance: every facade verb, sim vs tcp.

The contract under test is the :class:`~repro.distributed.transport.base.Transport`
interface's strongest promise: for a fault-free plan, the deterministic
simulator and the real-socket TCP backend are *observationally identical* —
same match results, same per-station delivered wire bytes (byte-for-byte),
same frame and byte ledgers.  Wall-clock quantities (``latency_s``,
per-entry transcript timestamps) are the one sanctioned divergence: the
simulator reports virtual link time, TCP reports measured time.

Every pair of runs in this module differs in exactly one field of the
deployment spec (``TransportSpec.transport``), so any assertion failure here
is a transport bug by construction.
"""

from __future__ import annotations

import pytest

from repro.cluster import RoundOptions
from repro.core.dimatching import DIMatchingProtocol
from repro.core.config import DIMatchingConfig
from repro.distributed.basestation import BaseStationNode
from repro.distributed.datacenter import DataCenterNode
from repro.distributed.messages import Message, MessageKind
from repro.distributed.network import NetworkConfig, SimulatedNetwork
from repro.wire.errors import UnsupportedWireTypeError
from repro.workloads import get_scenario, run_workload

from ..unit.distributed.test_unencodable_payloads import (
    SENDS_BEFORE,
    UNENCODABLE,
    downlink_sends,
    refused_phase_ledger,
    uplink_sends,
)
from .conftest import open_cluster
from .util import generous

pytestmark = pytest.mark.transport


def _ledger(report):
    """The transport-invariant slice of a round report.

    Delta-session reports carry no :class:`CostReport`; for full rounds the
    frame-level and storage fields join the comparison.
    """
    ledger = {
        "results": report.results,
        "downlink_bytes": report.downlink_bytes,
        "uplink_bytes": report.uplink_bytes,
        "goodput": report.goodput_fraction,
        "retransmits": report.retransmit_count,
        "lost": report.lost_station_count,
    }
    costs = report.costs
    if costs is not None:
        ledger.update(
            dropped=costs.dropped_frame_count,
            duplicate=costs.duplicate_frame_count,
            corrupt=costs.corrupt_frame_count,
            messages=costs.message_count,
            reports=costs.report_count,
            storage_center=costs.storage_center_bytes,
            storage_station=costs.storage_station_bytes,
        )
    return ledger


class TestFacadeRounds:
    def test_rounds_and_rotation_are_transport_invariant(self, dataset, batch_a, batch_b):
        """subscribe → round → rotate → round: identical reports on both backends."""
        ledgers = {}
        for transport in ("sim", "tcp"):
            with open_cluster(dataset, transport) as cluster:
                cluster.subscribe(batch_a)
                first = cluster.round(RoundOptions(net_seed=3))
                cluster.subscribe(batch_b)
                second = cluster.round(RoundOptions(net_seed=4))
                ledgers[transport] = [_ledger(first), _ledger(second)]
        assert ledgers["tcp"] == ledgers["sim"]

    def test_station_subset_round_is_transport_invariant(self, dataset, batch_a):
        """Per-round station subsets (the churn verb) behave identically."""
        ledgers = {}
        for transport in ("sim", "tcp"):
            with open_cluster(dataset, transport) as cluster:
                subset = cluster.station_ids[:2]
                cluster.subscribe(batch_a)
                report = cluster.round(
                    RoundOptions(station_ids=subset, net_seed=5)
                )
                ledgers[transport] = _ledger(report)
                assert report.active_station_count == len(subset)
        assert ledgers["tcp"] == ledgers["sim"]


class TestFacadeSessions:
    def test_delta_session_verbs_are_transport_invariant(self, dataset, batch_a, batch_b):
        """publish / retire / subscribe / step through a deltas session."""
        ledgers = {}
        for transport in ("sim", "tcp"):
            with open_cluster(dataset, transport) as cluster:
                station_ids = cluster.station_ids
                with cluster.open_session(mode="deltas") as session:
                    session.subscribe(batch_a)
                    for station_id in station_ids:
                        session.publish(station_id, dataset.local_patterns_at(station_id))
                    first = session.step(RoundOptions(net_seed=6))
                    session.retire(station_ids[-1])
                    session.subscribe(batch_b)
                    second = session.step(RoundOptions(net_seed=7))
                    ledgers[transport] = [_ledger(first), _ledger(second)]
        assert ledgers["tcp"] == ledgers["sim"]

    def test_rounds_session_is_transport_invariant(self, dataset, batch_a):
        ledgers = {}
        for transport in ("sim", "tcp"):
            with open_cluster(dataset, transport) as cluster:
                with cluster.open_session(mode="rounds") as session:
                    session.subscribe(batch_a)
                    report = session.step(RoundOptions(net_seed=8))
                    ledgers[transport] = _ledger(report)
        assert ledgers["tcp"] == ledgers["sim"]

    def test_snapshot_restore_replays_identically_on_tcp(self, dataset, batch_a, batch_b):
        """restore() erases the mutation on the real-socket backend too.

        TCP transcript timestamps are wall-clock and the interleaving of
        *concurrent* per-station transfers is real-scheduler order (the
        sanctioned divergences), so the replay comparison covers the
        order-free, time-free projection of the transcript — which events hit
        which frames with which routing and sizes — plus the full ledger.
        """
        def shape(report):
            return sorted(
                (e.frame_id, e.attempt, e.event, e.sender, e.recipient, e.kind, e.size_bytes)
                for e in report.transcript
            )

        with open_cluster(dataset, "tcp") as cluster:
            cluster.subscribe(batch_a)
            baseline = cluster.round(RoundOptions(net_seed=9))
            frozen = cluster.snapshot()
            cluster.subscribe(batch_b)
            cluster.round(RoundOptions(net_seed=10))
            cluster.restore(frozen)
            replay = cluster.round(RoundOptions(net_seed=9))
        assert _ledger(replay) == _ledger(baseline)
        assert shape(replay) == shape(baseline)


class TestDeliveredWireBytes:
    """Byte-for-byte parity of what each node actually decoded off the wire."""

    @staticmethod
    def _run_phases(transport_factory, dataset, batch):
        """One full downlink + matching + uplink pass over a raw transport."""
        protocol = DIMatchingProtocol(DIMatchingConfig(epsilon=0))
        center = DataCenterNode()
        stations = [
            BaseStationNode(station_id, dataset.local_patterns_at(station_id))
            for station_id in dataset.station_ids
        ]
        network = transport_factory()
        artifact = protocol.encode(batch)
        network.broadcast(
            [
                (
                    Message(
                        sender=center.node_id,
                        recipient=station.node_id,
                        kind=MessageKind.FILTER_DISSEMINATION,
                        payload=artifact,
                    ),
                    station,
                )
                for station in stations
            ]
        )
        network.gather(
            [
                (
                    Message(
                        sender=station.node_id,
                        recipient=center.node_id,
                        kind=MessageKind.MATCH_REPORT,
                        payload=protocol.station_match(
                            station.node_id,
                            station.patterns,
                            station.latest_artifact(),
                        ),
                    ),
                    center,
                )
                for station in stations
            ]
        )
        return {
            "downlink": network.delivered_payloads("downlink"),
            "uplink": network.delivered_payloads("uplink"),
            "stats": network.frame_stats(),
            "downlink_bytes": network.downlink_bytes,
            "uplink_bytes": network.uplink_bytes,
        }

    def test_per_station_wire_bytes_are_byte_identical(self, dataset, batch_a):
        from repro.distributed.transport.tcp import TcpTransportManager

        config = NetworkConfig()
        sim = self._run_phases(
            lambda: SimulatedNetwork(config, fault_plan="none", seed=11),
            dataset,
            batch_a,
        )
        manager = TcpTransportManager(config, connect_timeout_s=generous(30.0))
        try:
            tcp = self._run_phases(
                lambda: manager.create_transport(fault_plan="none", seed=11),
                dataset,
                batch_a,
            )
        finally:
            manager.shutdown()

        # The downlink artifact and every station's report payload crossed
        # the real sockets byte-for-byte as the simulator modeled them.
        assert tcp["downlink"] == sim["downlink"]
        assert tcp["uplink"] == sim["uplink"]
        assert set(sim["uplink"]) == set(dataset.station_ids)
        assert all(payloads for payloads in sim["uplink"].values())
        # Fault-free plans deliver every frame exactly once on both backends.
        assert tcp["stats"] == sim["stats"]
        assert tcp["stats"].frames_sent == tcp["stats"].frames_delivered
        assert tcp["downlink_bytes"] == sim["downlink_bytes"]
        assert tcp["uplink_bytes"] == sim["uplink_bytes"]


class TestUnencodablePayloads:
    """A payload the codec refuses fails its phase on TCP as on the simulator.

    Both transports raise before any frame of the phase is sent and leave the
    same ledger; the TCP transport then serves its next phase normally.
    """

    @pytest.fixture(scope="class")
    def manager(self):
        from repro.distributed.transport.tcp import TcpTransportManager

        manager = TcpTransportManager(NetworkConfig(), connect_timeout_s=generous(30.0))
        yield manager
        manager.shutdown()

    @staticmethod
    def _refuse(network, direction, shape):
        sends = (downlink_sends if direction == "downlink" else uplink_sends)(
            UNENCODABLE[shape]()
        )
        run = network.broadcast if direction == "downlink" else network.gather
        with pytest.raises(UnsupportedWireTypeError):
            run(sends)
        assert all(receiver.inbox == [] for _message, receiver in sends)

    @pytest.mark.parametrize("direction", ["downlink", "uplink"])
    @pytest.mark.parametrize("shape", sorted(UNENCODABLE))
    def test_refused_phase_leaves_the_simulators_ledger(self, manager, shape, direction):
        ledgers = {}
        for backend, network in (
            ("sim", SimulatedNetwork(fault_plan="none", seed=5)),
            ("tcp", manager.create_transport(fault_plan="none", seed=5)),
        ):
            self._refuse(network, direction, shape)
            ledgers[backend] = refused_phase_ledger(network)
        assert ledgers["tcp"] == ledgers["sim"]
        assert ledgers["tcp"]["message_count"] == SENDS_BEFORE
        assert ledgers["tcp"]["transcript"] == ()

    def test_the_next_phase_is_served_normally(self, manager):
        seen = {}
        for backend, network in (
            ("sim", SimulatedNetwork(fault_plan="none", seed=5)),
            ("tcp", manager.create_transport(fault_plan="none", seed=5)),
        ):
            self._refuse(network, "downlink", "dict")
            sends = uplink_sends([])[SENDS_BEFORE + 1 :]
            outcome = network.gather(sends)
            seen[backend] = {
                "delivered_ids": outcome.delivered_ids,
                "inbox": sends[0][1].inbox,
                "rows": [
                    (row.event, row.frame_id, row.size_bytes)
                    for row in network.transcript
                ],
                "message_count": network.message_count,
                "uplink_bytes": network.uplink_bytes,
                "stats": network.frame_stats(),
                "delivered": network.delivered_payloads("uplink"),
            }
        assert seen["tcp"] == seen["sim"]
        assert seen["tcp"]["delivered_ids"] == (f"bs-{SENDS_BEFORE + 1}",)


class TestScenarioDrives:
    def test_steady_state_scenario_is_transport_invariant(self):
        spec = get_scenario("steady-state").with_updates(
            rounds=2, station_count=3, users_per_category=2
        )
        runs = {
            transport: run_workload(spec, transport=transport)
            for transport in ("sim", "tcp")
        }
        for sim_round, tcp_round in zip(runs["sim"].rounds, runs["tcp"].rounds):
            assert tcp_round.downlink_bytes == sim_round.downlink_bytes
            assert tcp_round.uplink_bytes == sim_round.uplink_bytes
            assert tcp_round.precision == sim_round.precision
            assert tcp_round.recall == sim_round.recall
            assert tcp_round.retransmit_count == sim_round.retransmit_count
            assert tcp_round.goodput_fraction == sim_round.goodput_fraction

    def test_degraded_network_scenario_completes_on_tcp(self):
        """The chaos profile over real sockets: partial rounds survive loudly."""
        spec = get_scenario("degraded-network").with_updates(
            rounds=2, station_count=3, users_per_category=2
        )
        result = run_workload(spec, transport="tcp")
        assert len(result.rounds) == 2
        for round_metrics in result.rounds:
            assert 0.0 < round_metrics.goodput_fraction <= 1.0
            assert round_metrics.recall <= 1.0
