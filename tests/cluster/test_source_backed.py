"""Source-backed clusters: bounded residency, restore parity, eager equivalence.

The tentpole contract of the :class:`StationSource` boundary:

* a streaming-backed cluster's resident station batches never exceed the
  source's LRU cap — across full rounds, windowed rounds, publish/retire
  churn and snapshot/restore cycles;
* a cluster adopted from a :class:`DatasetStationSource` is byte-identical
  to the same deployment adopted from the raw dataset (the facade cannot
  tell the two apart);
* snapshot → mutate → restore on a source-backed cluster continues
  byte-identically to a twin that never mutated.
"""

import hashlib

import pytest

from repro.cluster import (
    Cluster,
    ClusterSpec,
    ClusterStateError,
    ProtocolSpec,
    RoundOptions,
)
from repro.core.config import DIMatchingConfig
from repro.core.exceptions import ConfigurationError
from repro.datagen import DatasetStationSource, SourceSpec
from repro.datagen.workload import build_dataset

#: A streaming city small enough for tests but larger than its resident cap.
STREAM_SPEC = SourceSpec(
    kind="streaming",
    station_count=6,
    users_per_station=4,
    max_resident=2,
    seed=42,
)


def _protocol() -> ProtocolSpec:
    return ProtocolSpec(
        method="wbf",
        epsilon=0,
        config=DIMatchingConfig(epsilon=0, sample_count=12, hash_count=4),
    )


def _streaming_cluster() -> Cluster:
    source = STREAM_SPEC.build()
    return Cluster(
        ClusterSpec(name="soak", protocol=_protocol(), source=STREAM_SPEC),
        source=source,
    )


def _queries(source, count: int = 3):
    return [source.exemplar_query(index) for index in range(count)]


class TestAdoption:
    def test_adopt_needs_exactly_one_boundary(self, cluster):
        with pytest.raises(ConfigurationError, match="exactly one"):
            Cluster.adopt()
        with pytest.raises(ConfigurationError, match="exactly one"):
            Cluster.adopt(
                dataset=cluster.dataset,
                source=DatasetStationSource(cluster.dataset),
            )

    def test_constructor_rejects_both_spellings(self, wbf_spec, cluster):
        with pytest.raises(ConfigurationError, match="at most one"):
            Cluster(
                wbf_spec.with_updates(dataset=None),
                dataset=cluster.dataset,
                source=DatasetStationSource(cluster.dataset),
            )

    def test_spec_source_builds_on_demand(self):
        with _streaming_cluster() as deployed:
            assert len(deployed.station_ids) == STREAM_SPEC.station_count
            assert deployed.source.resident_cap == STREAM_SPEC.max_resident
            # Nothing is materialized at adoption time.
            assert len(deployed.stations) == 0

    def test_streaming_cluster_has_no_dataset(self):
        with _streaming_cluster() as deployed:
            with pytest.raises(ClusterStateError, match="streaming"):
                deployed.dataset


#: Transcript digest of the subset round below: which stations take part, and
#: in what order, is part of the replay.
SUBSET_ROUND_SHA256 = "57980abc4b3b6d1d5484e1236911af97f53168c425bd432253f943dab284237d"


class TestSubsetRounds:
    def test_a_shuffled_subset_runs_in_dataset_order(self):
        with _streaming_cluster() as deployed:
            deployed.subscribe(_queries(deployed.source))
            stations = list(deployed.station_ids)
            deployed.retire(stations[3])
            subset = [stations[4], stations[3], stations[0], stations[5], stations[2]]
            report = deployed.round(RoundOptions(station_ids=subset, net_seed=5))
            downlink = [
                entry.recipient
                for entry in report.transcript
                if entry.event == "send" and entry.kind == "filter_dissemination"
            ]
            # Dataset order, and the withdrawn station is skipped.
            assert downlink == [stations[0], stations[2], stations[4], stations[5]]
            assert report.active_station_count == 4
            digest = hashlib.sha256(report.transcript_bytes()).hexdigest()
            assert digest == SUBSET_ROUND_SHA256


class TestBoundedResidency:
    def test_rounds_never_exceed_the_cap_and_release_after(self):
        with _streaming_cluster() as deployed:
            source = deployed.source
            deployed.subscribe(_queries(source))
            for index in range(3):
                deployed.round(RoundOptions(net_seed=index))
                assert source.resident_count <= STREAM_SPEC.max_resident
                # Non-pinned nodes are dropped once the round is over.
                assert len(deployed.stations) == 0
            assert source.eviction_count > 0

    def test_windowed_rounds_touch_only_the_window(self):
        with _streaming_cluster() as deployed:
            source = deployed.source
            deployed.subscribe(_queries(source))
            window = tuple(deployed.station_ids[:2])
            report = deployed.round(RoundOptions(station_ids=window, net_seed=1))
            assert report.active_station_count == len(window)
            assert source.built_count == len(window)

    def test_cap_holds_across_publish_retire_churn_and_restore(self):
        with _streaming_cluster() as deployed:
            source = deployed.source
            cap = STREAM_SPEC.max_resident
            deployed.subscribe(_queries(source))
            stations = deployed.station_ids
            # Publish pins a station; retire withdraws another; rounds in
            # between touch whatever remains.
            deployed.publish(stations[0], source.local_patterns_at(stations[0]))
            assert source.resident_count <= cap
            deployed.retire(stations[1])
            assert stations[1] not in deployed.station_ids
            deployed.round(RoundOptions(net_seed=7))
            assert source.resident_count <= cap
            snapshot = deployed.snapshot()
            deployed.round(RoundOptions(net_seed=8))
            deployed.restore(snapshot)
            # The withdrawn set survives the round-trip; the cap still holds.
            assert stations[1] not in deployed.station_ids
            deployed.round(RoundOptions(net_seed=9))
            assert source.resident_count <= cap

    def test_retired_station_stays_out_of_full_rounds(self):
        with _streaming_cluster() as deployed:
            source = deployed.source
            deployed.subscribe(_queries(source))
            victim = deployed.station_ids[2]
            deployed.retire(victim)
            report = deployed.round(RoundOptions(net_seed=3))
            assert report.active_station_count == STREAM_SPEC.station_count - 1


class TestRestoreParity:
    def test_restore_erases_mutations_byte_for_byte(self):
        def tail(deployed: Cluster) -> str:
            for index in range(2):
                deployed.round(RoundOptions(net_seed=50 + index))
            return deployed.transcript_digest()

        with _streaming_cluster() as mutated, _streaming_cluster() as control:
            for deployed in (mutated, control):
                deployed.subscribe(_queries(deployed.source))
                deployed.round(RoundOptions(net_seed=1))
            snapshot = mutated.snapshot()
            # Mutate: extra rounds, a pinned publish, a withdrawal.
            mutated.round(RoundOptions(net_seed=99))
            sid = mutated.station_ids[0]
            mutated.publish(sid, mutated.source.local_patterns_at(sid))
            mutated.retire(mutated.station_ids[1])
            mutated.restore(snapshot)
            assert tail(mutated) == tail(control)


class TestEagerEquivalence:
    def test_source_and_dataset_adoption_are_byte_identical(
        self, tiny_dataset_spec, wbf_spec, queries
    ):
        dataset = build_dataset(tiny_dataset_spec)
        transcripts = []
        for kwargs in (
            {"dataset": dataset},
            {"source": DatasetStationSource(dataset)},
        ):
            with Cluster(wbf_spec.with_updates(dataset=None), **kwargs) as deployed:
                deployed.subscribe(queries)
                deployed.round(RoundOptions(net_seed=11))
                deployed.round(RoundOptions(net_seed=12))
                transcripts.append(deployed.transcript_digest())
        assert transcripts[0] == transcripts[1]

    def test_spec_declared_eager_source_matches_dataset_spec(
        self, tiny_dataset_spec, queries
    ):
        eager_source = SourceSpec(
            kind="eager",
            station_count=tiny_dataset_spec.station_count,
            users_per_category=tiny_dataset_spec.users_per_category,
            days=tiny_dataset_spec.days,
            intervals_per_day=tiny_dataset_spec.intervals_per_day,
            noise_level=tiny_dataset_spec.noise_level,
            seed=tiny_dataset_spec.seed,
        )
        # Cohort-feature knobs beyond SourceSpec's surface (cliques, decoys)
        # stay at DatasetSpec defaults, so build the dataset twin to match.
        from repro.datagen.workload import DatasetSpec

        twin_spec = DatasetSpec(
            users_per_category=tiny_dataset_spec.users_per_category,
            station_count=tiny_dataset_spec.station_count,
            days=tiny_dataset_spec.days,
            intervals_per_day=tiny_dataset_spec.intervals_per_day,
            noise_level=tiny_dataset_spec.noise_level,
            seed=tiny_dataset_spec.seed,
        )
        transcripts = []
        for cluster_spec in (
            ClusterSpec(name="twin", protocol=_protocol(), source=eager_source),
            ClusterSpec(name="twin", protocol=_protocol(), dataset=twin_spec),
        ):
            with Cluster(cluster_spec) as deployed:
                deployed.subscribe(queries)
                deployed.round(RoundOptions(net_seed=21))
                transcripts.append(deployed.transcript_digest())
        assert transcripts[0] == transcripts[1]
