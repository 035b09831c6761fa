"""Fault-free phases build no ``Message`` per frame and no ``MatchReport`` per report.

A phase hands its transport one :class:`~repro.distributed.transport.base.Frames`
and receivers keep columnar inboxes, so a warm fault-free round and a
fault-free delta-session step construct no
:class:`~repro.distributed.messages.Message` at all, whatever the station
count.  Before frames were columns, a round built four per station: a send
and a decoded copy per station on each of the two phases.

Reports travel as :class:`~repro.core.reports.ReportColumns` from the station
kernel through the codec and the transports to the ranker, so the same
round and step construct no :class:`~repro.core.protocol.MatchReport`
either.  Before, a round built two per report: the station's and the
center's decoded copy.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.core.protocol import MatchReport
from repro.datagen.mobility import UserMobility
from repro.datagen.workload import DistributedDataset, UserProfile
from repro.distributed.messages import Message
from repro.timeseries.pattern import LocalPattern
from repro.timeseries.query import QueryPattern
from repro.topology import TopologySpec

TOPOLOGIES = {
    "star": TopologySpec(),
    "two-tier": TopologySpec(kind="two-tier", regions=4),
}
QUERIES = [QueryPattern("q-u", [LocalPattern("u", [1], "bs-0")])]


def _cluster(count: int, topology: str) -> Cluster:
    stations = [f"bs-{index}" for index in range(count)]
    users = {"u": UserProfile("u", "student", UserMobility("u", "bs-0", "bs-0", "bs-0"))}
    local = {station: {"u": LocalPattern("u", [1], station)} for station in stations}
    dataset = DistributedDataset(stations, users, local, 1, 24)
    return Cluster(ClusterSpec(name="frames", topology=TOPOLOGIES[topology]), dataset=dataset)


def _counted(monkeypatch, cls) -> list:
    """The number of ``cls`` constructions from now on, as a growing list."""
    calls = []
    construct = cls.__init__

    def counting(self, *args, **kwargs):
        calls.append(None)
        construct(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    return calls


@pytest.fixture
def built(monkeypatch):
    """The number of ``Message`` constructions since the fixture was set up."""
    return _counted(monkeypatch, Message)


@pytest.fixture
def reports_built(monkeypatch):
    """The number of ``MatchReport`` constructions since the fixture was set up."""
    return _counted(monkeypatch, MatchReport)


def _warm_round(topology: str, count: int, built: list):
    """A cluster's second round, with ``built`` cleared after the first."""
    with _cluster(count, topology) as cluster:
        cluster.subscribe(QUERIES)
        cluster.round()
        built.clear()
        return cluster.round()


def _delta_step(topology: str, count: int, built: list):
    """A delta session's second step, with ``built`` cleared after its publishes."""
    with _cluster(count, topology) as cluster:
        cluster.subscribe(QUERIES)
        with cluster.open_session("deltas") as session:
            for station_id in cluster.station_ids:
                session.publish(station_id, cluster.dataset.local_patterns_at(station_id))
            session.step()
            for station_id in cluster.station_ids:
                session.publish(station_id, cluster.dataset.local_patterns_at(station_id))
            built.clear()
            return session.step()


@pytest.mark.parametrize("count", [250, 1000])
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_a_warm_round_builds_no_message(built, topology, count):
    report = _warm_round(topology, count, built)
    assert report.active_station_count == count
    assert report.costs.report_count == count
    assert len(built) == 0


@pytest.mark.parametrize("count", [250, 1000])
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_a_delta_step_builds_no_message(built, topology, count):
    report = _delta_step(topology, count, built)
    assert len(report.delivered_station_ids) == count
    assert len(built) == 0


@pytest.mark.parametrize("count", [250, 1000])
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_a_warm_round_builds_no_match_report(reports_built, topology, count):
    report = _warm_round(topology, count, reports_built)
    assert report.costs.report_count == count
    assert len(reports_built) == 0


@pytest.mark.parametrize("count", [250, 1000])
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_a_delta_step_builds_no_match_report(reports_built, topology, count):
    report = _delta_step(topology, count, reports_built)
    assert len(report.delivered_station_ids) == count
    assert len(reports_built) == 0


def test_the_guard_sees_a_message(built):
    # The counter itself works: a single send still builds its Message.
    from repro.distributed.messages import MessageKind

    Message("bs-0", "data-center", MessageKind.CONTROL)
    assert len(built) == 1


def test_the_guard_sees_a_match_report(reports_built):
    # The counter works on the frozen dataclass too.
    MatchReport("u", "bs-0")
    assert len(reports_built) == 1
