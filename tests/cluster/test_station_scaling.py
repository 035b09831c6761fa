"""Complexity guards for the facade's per-station verbs.

Each guard runs one verb for every station of a cluster whose station ids
count the equality tests made on them (see :mod:`tests.complexity`), and
asserts that the comparisons per station are the same at 250 and at 1,000
stations, on the flat star and on a 4-region two-tier map.  A list scan per
station would make that count grow with the station count.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.datagen.mobility import UserMobility
from repro.datagen.workload import DistributedDataset, UserProfile
from repro.timeseries.pattern import LocalPattern, PatternSet
from repro.topology import TopologySpec, build_tier_map

from ..complexity import CountingId

TOPOLOGIES = {
    "star": TopologySpec(),
    "two-tier": TopologySpec(kind="two-tier", regions=4),
}


def _dataset(count: int) -> DistributedDataset:
    stations = [CountingId(f"bs-{index}") for index in range(count)]
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
