"""Complexity guards for the facade's per-station verbs and round paths.

Each guard runs one verb for every station of a cluster whose station ids
count the equality tests made on them (see :mod:`tests.complexity`), and
asserts that the comparisons per station are the same at 250 and at 1,000
stations, on the flat star and on a 4-region two-tier map.  A list scan per
station would make that count grow with the station count.

The round paths — a warm round, a delta-session step, session open, lazy
source activation and the workload engine's churn step — run on ids that
survive ``str()`` (:class:`~tests.complexity.KeptId`), so node ids and the
churn schedule keep counting.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.datagen.mobility import UserMobility
from repro.datagen.source import DatasetStationSource
from repro.datagen.workload import DistributedDataset, UserProfile
from repro.timeseries.pattern import LocalPattern, PatternSet
from repro.timeseries.query import QueryPattern
from repro.topology import TopologySpec, build_tier_map
from repro.workloads.engine import _ChurnState
from repro.workloads.spec import ChurnProcess

from ..complexity import CountingId, KeptId

TOPOLOGIES = {
    "star": TopologySpec(),
    "two-tier": TopologySpec(kind="two-tier", regions=4),
}


def _dataset(count: int, id_type: type = CountingId) -> DistributedDataset:
    stations = [id_type(f"bs-{index}") for index in range(count)]
    users = {"u": UserProfile("u", "student", UserMobility("u", "bs-0", "bs-0", "bs-0"))}
    local = {station: {"u": LocalPattern("u", [1], station)} for station in stations}
    return DistributedDataset(stations, users, local, 1, 24)


def _cluster(dataset: DistributedDataset, topology: TopologySpec) -> Cluster:
    return Cluster(ClusterSpec(name="scaling", topology=topology), dataset=dataset)


def _copies(dataset: DistributedDataset) -> list[CountingId]:
    # Equal ids that are not the same objects, as a caller would pass.
    return [CountingId(str(station)) for station in dataset.station_ids]


def _counted(action) -> int:
    CountingId.comparisons = 0
    action()
    return CountingId.comparisons


def _construction(dataset, topology):
    return _counted(lambda: _cluster(dataset, topology).close())


def _publish(dataset, topology):
    published = [(sid, PatternSet([LocalPattern("u", [2], sid)])) for sid in _copies(dataset)]
    with _cluster(dataset, topology) as cluster:
        return _counted(lambda: [cluster.publish(sid, patterns) for sid, patterns in published])


def _retire(dataset, topology):
    retired = _copies(dataset)
    with _cluster(dataset, topology) as cluster:
        return _counted(lambda: [cluster.retire(sid) for sid in retired])


def _snapshot_restore(dataset, topology):
    with _cluster(dataset, topology) as cluster:
        return _counted(lambda: cluster.restore(cluster.snapshot()))


def _tier_map(dataset, topology):
    order = _copies(dataset)
    return _counted(lambda: build_tier_map(order, topology))


@pytest.fixture(scope="module")
def datasets():
    return {count: _dataset(count) for count in (250, 1000)}


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize(
    "verb", [_construction, _publish, _retire, _snapshot_restore, _tier_map],
    ids=["construction", "publish", "retire", "snapshot-restore", "tier-map"],
)
def test_comparisons_per_station_do_not_grow(datasets, verb, topology):
    per_station = {
        count: verb(dataset, TOPOLOGIES[topology]) / count
        for count, dataset in datasets.items()
    }
    assert per_station[1000] == per_station[250], per_station


# -- round paths -------------------------------------------------------------------

QUERIES = [QueryPattern("q-u", [LocalPattern("u", [1], "bs-0")])]


def _publish_all(session, dataset) -> None:
    for station_id in dataset.station_ids:
        session.publish(KeptId(station_id), dataset.local_patterns_at(station_id))


def _warm_round(count, topology):
    with _cluster(_dataset(count, KeptId), topology) as cluster:
        cluster.subscribe(QUERIES)
        cluster.round()
        return _counted(cluster.round)


def _delta_step(count, topology):
    with _cluster(_dataset(count, KeptId), topology) as cluster:
        cluster.subscribe(QUERIES)
        with cluster.open_session("deltas") as session:
            _publish_all(session, cluster.dataset)
            session.step()
            _publish_all(session, cluster.dataset)
            return _counted(session.step)


def _session_open(count, topology):
    with _cluster(_dataset(count, KeptId), topology) as cluster:
        cluster.subscribe(QUERIES)

        def open_and_step():
            with cluster.open_session("deltas") as session:
                _publish_all(session, cluster.dataset)
                session.step()

        return _counted(open_and_step)


class _LazySource(DatasetStationSource):
    """The dataset served lazily: every round activates its stations."""

    @property
    def resident_cap(self) -> int:
        return len(self.station_ids)


def _lazy_activation(count, topology):
    source = _LazySource(_dataset(count, KeptId))
    spec = ClusterSpec(name="scaling", topology=topology)
    with Cluster(spec, source=source) as cluster:
        cluster.subscribe(QUERIES)
        cluster.round()
        return _counted(cluster.round)


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize(
    "path",
    [_warm_round, _delta_step, _session_open, _lazy_activation],
    ids=["warm-round", "delta-step", "session-open", "lazy-activation"],
)
def test_round_paths_compare_no_more_per_station(path, topology):
    per_station = {
        count: path(count, TOPOLOGIES[topology]) / count for count in (250, 1000)
    }
    assert per_station[1000] == per_station[250], per_station


def test_a_churn_step_compares_no_more_per_station():
    # The workload engine's churn schedule: a step walks every station once.
    spec = SimpleNamespace(
        churn=ChurnProcess(leave_probability=0.3, join_probability=0.5),
        seed=5,
        name="scaling",
    )
    per_station = {}
    for count in (250, 1000):
        churn = _ChurnState(spec, [KeptId(f"bs-{index}") for index in range(count)])
        churn.step(1)
        per_station[count] = _counted(lambda: churn.step(2)) / count
    assert per_station[1000] == per_station[250], per_station
