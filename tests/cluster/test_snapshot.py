"""Snapshot/restore round-trips: restore erases the mutation byte-for-byte.

The contract under test: ``snapshot() → mutate (extra rounds, rotated
subscriptions, republished/retired stations) → restore()`` leaves the cluster
continuing **byte-identically** to a twin that never mutated — also across
seeded mutation schedules (a Hypothesis property).
"""

import hashlib

import pytest

from repro.cluster import (
    Cluster,
    ClusterSnapshot,
    ClusterSpec,
    ClusterStateError,
    ProtocolSpec,
    RoundOptions,
)
from repro.core.config import DIMatchingConfig
from repro.datagen.workload import DatasetSpec, build_dataset, build_query_workload

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAS_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships with the dev extras
    HAS_HYPOTHESIS = False

DATASET_SPEC = DatasetSpec(
    users_per_category=3,
    station_count=3,
    days=1,
    intervals_per_day=24,
    noise_level=0,
    cliques_per_place=2,
    replicated_decoys_per_category=1,
    seed=404,
)
DATASET = build_dataset(DATASET_SPEC)
BATCH_A = list(build_query_workload(DATASET, query_count=3, epsilon=0, seed=1).queries)
BATCH_B = list(build_query_workload(DATASET, query_count=2, epsilon=0, seed=2).queries)


def _cluster() -> Cluster:
    return Cluster(
        ClusterSpec(
            name="snap",
            protocol=ProtocolSpec(
                method="wbf",
                config=DIMatchingConfig(epsilon=0),
            ),
        ),
        dataset=DATASET,
    )


def _run_tail(cluster: Cluster, rounds: int = 3) -> str:
    for index in range(rounds):
        cluster.round(RoundOptions(net_seed=100 + index))
    return cluster.transcript_digest()


class TestSnapshotBasics:
    def test_snapshot_captures_the_current_state(self):
        with _cluster() as cluster:
            cluster.subscribe(BATCH_A)
            cluster.round(RoundOptions(net_seed=1))
            snapshot = cluster.snapshot()
        assert isinstance(snapshot, ClusterSnapshot)
        assert snapshot.round_index == 1
        assert len(snapshot.queries) == len(BATCH_A)
        assert 0 < snapshot.station_count <= len(DATASET.station_ids)

    def test_restore_rejects_foreign_objects(self):
        with _cluster() as cluster:
            with pytest.raises(TypeError, match="ClusterSnapshot"):
                cluster.restore({"round_index": 0})

    def test_snapshot_refused_while_a_delta_session_is_open(self):
        with _cluster() as cluster:
            cluster.subscribe(BATCH_A)
            session = cluster.open_session(mode="deltas")
            session.publish(
                cluster.station_ids[0],
                DATASET.local_patterns_at(cluster.station_ids[0]),
            )
            with pytest.raises(ClusterStateError, match="delta session"):
                cluster.snapshot()

    def test_restore_rewinds_the_round_counter_and_transcripts(self):
        with _cluster() as cluster:
            cluster.subscribe(BATCH_A)
            first = cluster.round(RoundOptions(net_seed=1))
            snapshot = cluster.snapshot()
            cluster.round(RoundOptions(net_seed=2))
            cluster.round(RoundOptions(net_seed=3))
            assert cluster.round_index == 3
            cluster.restore(snapshot)
            assert cluster.round_index == 1
            replay = b"".join([b"== round 0 ==\n", first.transcript_bytes(), b"\n"])
            assert cluster.transcript_digest() == hashlib.sha256(replay).hexdigest()


class TestSnapshotRoundTrip:
    def test_restore_erases_extra_rounds_and_rotations(self):
        with _cluster() as mutated, _cluster() as pristine:
            for cluster in (mutated, pristine):
                cluster.subscribe(BATCH_A)
                cluster.round(RoundOptions(net_seed=7))
            snapshot = mutated.snapshot()
            # Mutate: rotate the campaign, run extra rounds, republish and
            # retire stations.
            mutated.subscribe(BATCH_B)
            mutated.round(RoundOptions(net_seed=8))
            victim = mutated.station_ids[0]
            mutated.retire(victim)
            mutated.round(RoundOptions(net_seed=9, station_ids=mutated.station_ids))
            mutated.restore(snapshot)
            assert _run_tail(mutated) == _run_tail(pristine)

    def test_restore_erases_pattern_republications(self):
        with _cluster() as mutated, _cluster() as pristine:
            for cluster in (mutated, pristine):
                cluster.subscribe(BATCH_A)
            snapshot = mutated.snapshot()
            # Publish a *different* station payload (another station's data),
            # which changes matching results until restored.
            first, second = mutated.station_ids[0], mutated.station_ids[1]
            mutated.publish(first, DATASET.local_patterns_at(second))
            changed = mutated.round(RoundOptions(net_seed=5))
            mutated.restore(snapshot)
            clean = mutated.round(RoundOptions(net_seed=5))
            reference = pristine.round(RoundOptions(net_seed=5))
            assert clean.transcript_bytes() == reference.transcript_bytes()
            assert clean.results == reference.results
            assert changed.transcript_bytes() != clean.transcript_bytes()


if HAS_HYPOTHESIS:

    @settings(max_examples=8, deadline=None, suppress_health_check=list(HealthCheck))
    @given(
        mutations=st.lists(
            st.sampled_from(["rotate", "round", "republish", "retire"]),
            min_size=1,
            max_size=6,
        ),
    )
    def test_any_mutation_schedule_restores_byte_identically(mutations):
        """Property: no mutation sequence survives a restore."""
        with _cluster() as mutated, _cluster() as pristine:
            for cluster in (mutated, pristine):
                cluster.subscribe(BATCH_A)
                cluster.round(RoundOptions(net_seed=11))
            snapshot = mutated.snapshot()
            for index, mutation in enumerate(mutations):
                if mutation == "rotate":
                    mutated.subscribe(BATCH_B if index % 2 == 0 else BATCH_A)
                elif mutation == "round":
                    mutated.round(RoundOptions(net_seed=50 + index))
                elif mutation == "republish" and mutated.station_ids:
                    target = mutated.station_ids[index % len(mutated.station_ids)]
                    other = mutated.station_ids[(index + 1) % len(mutated.station_ids)]
                    mutated.publish(target, DATASET.local_patterns_at(other))
                elif mutation == "retire" and len(mutated.station_ids) > 1:
                    mutated.retire(mutated.station_ids[-1])
            mutated.restore(snapshot)
            assert _run_tail(mutated) == _run_tail(pristine)
