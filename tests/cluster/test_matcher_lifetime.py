"""A station's cached matcher lives exactly as long as its pattern set.

The WBF and BF protocols keep one matcher per station across rounds, keyed
by the identity of the station's ``PatternSet``.  A lazy cluster builds a
fresh ``PatternSet`` every time it activates a station and releases it after
the round, so a cache that held those sets strongly would keep every station
the source ever served alive, however small its resident cap.  These tests
pin the bound: the cache holds a station only while something else still
references its patterns.
"""

import gc
import weakref

from repro.cluster import Cluster, ClusterSpec, ProtocolSpec
from repro.core.config import DIMatchingConfig
from repro.datagen.streaming import StreamingStationSource
from repro.timeseries.pattern import PatternSet

WINDOW = 12


def test_lazy_cluster_cache_is_bounded_by_the_resident_cap():
    source = StreamingStationSource(2000, users_per_station=20, seed=3, max_resident=16)
    built: list[weakref.ref] = []
    materialize = source.local_patterns_at

    def tracked(station_id):
        patterns = materialize(station_id)
        built.append(weakref.ref(patterns))
        return patterns

    source.local_patterns_at = tracked
    spec = ClusterSpec(
        name="lifetime",
        protocol=ProtocolSpec(
            method="wbf",
            config=DIMatchingConfig(epsilon=0, sample_count=8, hash_count=4),
        ),
    )
    with Cluster(spec, source=source) as cluster:
        cluster.subscribe([source.exemplar_query(index) for index in range(4)])
        cache = cluster.protocol._matchers._matchers
        station_ids = cluster.station_ids
        for start in range(0, len(station_ids), WINDOW):
            report = cluster.round(station_ids=station_ids[start : start + WINDOW])
            assert report.active_station_count == len(station_ids[start : start + WINDOW])
            assert len(cache) <= source.resident_cap
        assert len(built) == len(station_ids)
        gc.collect()
        assert [ref for ref in built if ref() is not None] == []
        assert len(cache) == 0


def test_retire_drops_the_matcher_once_nothing_references_the_patterns(cluster, queries):
    cache = cluster.protocol._matchers._matchers
    station_id = cluster.station_ids[0]
    cluster.subscribe(queries)
    # Dataset stations stay cached: the dataset keeps their patterns alive.
    cluster.round()
    dataset_matcher = cache[cluster.station_ids[1]].matcher
    cluster.round()
    assert cache[cluster.station_ids[1]].matcher is dataset_matcher

    with cluster.open_session(mode="deltas") as session:
        first = PatternSet(list(cluster.dataset.local_patterns_at(station_id)))
        first_ref = weakref.ref(first)
        session.publish(station_id, first)
        del first
        assert cache[station_id]() is first_ref()

        # Replacing the set collects the old one without dropping the new entry.
        second = PatternSet(list(cluster.dataset.local_patterns_at(station_id)))
        second_ref = weakref.ref(second)
        session.publish(station_id, second)
        del second
        gc.collect()
        assert first_ref() is None
        assert cache[station_id]() is second_ref()
        session.step()

        # The open session and the cluster both still hold the set.
        gc.collect()
        assert cache[station_id]() is second_ref()

        session.retire(station_id)
        gc.collect()
        assert second_ref() is None
        assert station_id not in cache
