"""The subscribed batch is encoded once: what reuses its artifact, what drops it.

``Cluster.round`` encodes the subscription on its first round and sends the
same artifact object on every later round, so the codec's identity cache
also serves its wire bytes.  ``subscribe``, ``restore`` and a ``drive`` of
the cluster's own protocol drop the held artifact; ``drive`` itself encodes
on every call.  Whatever the history, a round must equal a fresh cluster's
round on the same subscription, byte for byte.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from repro.cluster import Cluster, ClusterSpec, ProtocolSpec
from repro.core.config import DIMatchingConfig
from repro.core.dimatching import DIMatchingProtocol
from repro.datagen.scale import build_scale_dataset, build_scale_queries
from repro.topology import TopologySpec
from repro.wire import codec

METHODS = ("wbf", "bf", "naive", "local")
CONFIG = DIMatchingConfig(epsilon=0, sample_count=12, hash_count=4)


def spec(method: str = "wbf") -> ClusterSpec:
    return ClusterSpec(
        name=f"held-{method}",
        protocol=ProtocolSpec(method=method, config=CONFIG),
    )


def observed(report) -> tuple:
    """What a round shows: its ranking, byte counts and transcript."""
    return (
        report.results,
        report.downlink_bytes,
        report.uplink_bytes,
        report.transcript_bytes(),
    )


@pytest.fixture(scope="module")
def batches(small_workload):
    """Two disjoint query batches over the small dataset."""
    queries = list(small_workload.queries)
    return queries[:3], queries[3:]


def fresh_round(method, dataset, queries) -> tuple:
    with Cluster(spec(method), dataset=dataset) as cluster:
        cluster.subscribe(queries)
        return observed(cluster.round())


class TestNoStaleArtifact:
    @pytest.mark.parametrize("method", METHODS)
    def test_a_drive_of_the_own_protocol_between_rounds(
        self, method, small_dataset, batches
    ):
        subscribed, other = batches
        with Cluster(spec(method), dataset=small_dataset) as cluster:
            cluster.subscribe(subscribed)
            cluster.round()
            cluster.drive(cluster.protocol, other)
            final = observed(cluster.round())
        assert final == fresh_round(method, small_dataset, subscribed)

    @pytest.mark.parametrize("method", METHODS)
    def test_a_delta_session_rotation_undone_by_restore(
        self, method, small_dataset, batches
    ):
        subscribed, other = batches
        with Cluster(spec(method), dataset=small_dataset) as cluster:
            cluster.subscribe(subscribed)
            cluster.round()
            snapshot = cluster.snapshot()
            with cluster.open_session("deltas") as session:
                # A publish opens the continuous session, which encodes
                # through the cluster's protocol; the rotation encodes again.
                station = cluster.station_ids[0]
                session.publish(station, cluster.stations[0].patterns)
                session.subscribe(other)
                session.step()
            cluster.restore(snapshot)
            final = observed(cluster.round())
        assert final == fresh_round(method, small_dataset, subscribed)

    @pytest.mark.parametrize("method", METHODS)
    def test_a_restore_across_a_rotation(self, method, small_dataset, batches):
        subscribed, other = batches
        with Cluster(spec(method), dataset=small_dataset) as cluster:
            cluster.subscribe(subscribed)
            cluster.round()
            snapshot = cluster.snapshot()
            cluster.subscribe(other)
            rotated = observed(cluster.round())
            cluster.restore(snapshot)
            final = observed(cluster.round())
        assert rotated == fresh_round(method, small_dataset, other)
        assert final == fresh_round(method, small_dataset, subscribed)


class Counters:
    """Counts Algorithm-1 encodes (keeping each artifact) and WBF body writes."""

    def __init__(self, monkeypatch) -> None:
        self.encodes = 0
        self.bodies = 0
        self.artifacts: list = []
        encode, write_body = DIMatchingProtocol.encode, codec._write_wbf_body

        def counted_encode(protocol, queries):
            self.encodes += 1
            artifact = encode(protocol, queries)
            self.artifacts.append(artifact)
            return artifact

        def counted_body(out, wbf):
            self.bodies += 1
            write_body(out, wbf)

        monkeypatch.setattr(DIMatchingProtocol, "encode", counted_encode)
        monkeypatch.setattr(codec, "_write_wbf_body", counted_body)
        monkeypatch.setitem(
            codec._WRITERS_BY_TYPE, codec.WeightedBloomFilter, (codec.TAG_WBF, counted_body)
        )


@pytest.fixture()
def counters(monkeypatch) -> Counters:
    return Counters(monkeypatch)


class TestEncodeCounts:
    def test_rounds_encode_once_per_subscription(self, counters, small_dataset, batches):
        subscribed = batches[0]
        with Cluster(spec(), dataset=small_dataset) as cluster:
            cluster.subscribe(subscribed)
            first = cluster.round()
            assert (counters.encodes, counters.bodies) == (1, 1)
            for _ in range(3):
                assert observed(cluster.round()) == observed(first)
            assert (counters.encodes, counters.bodies) == (1, 1)
            cluster.subscribe(subscribed)
            cluster.round()
            assert counters.encodes == 2

    def test_session_steps_in_rounds_mode_reuse_the_artifact(
        self, counters, small_dataset, batches
    ):
        with Cluster(spec(), dataset=small_dataset) as cluster:
            cluster.subscribe(batches[0])
            with cluster.open_session("rounds") as session:
                for _ in range(3):
                    session.step()
        assert counters.encodes == 1

    def test_drive_encodes_on_every_call(self, counters, small_dataset, batches):
        subscribed = batches[0]
        with Cluster(spec(), dataset=small_dataset) as cluster:
            cluster.subscribe(subscribed)
            for expected in (1, 2, 3):
                cluster.drive(cluster.protocol, subscribed)
                assert counters.encodes == expected
            # The drives dropped nothing a round still needs: it encodes once.
            cluster.round()
            cluster.round()
            assert counters.encodes == 4

    def test_inserting_into_the_held_filter_re_encodes(
        self, counters, small_dataset, batches
    ):
        with Cluster(spec(), dataset=small_dataset) as cluster:
            cluster.subscribe(batches[0])
            cluster.round()
            (held,) = counters.artifacts
            held.wbf.add("not-a-pattern", ("q-extra", Fraction(1, 3)))
            cluster.round()
            assert counters.encodes == 2
            assert counters.artifacts[1] is not held
            cluster.round()
            assert counters.encodes == 2


#: sha256 of one warm two-tier round's transcript, captured before the wire
#: header lost its version negotiation; the round must not change by a byte.
TWO_TIER_WARM_DIGEST = "d7afc29ae93e7b0d1e4bfff442d95875377c2a455b7e3761c467068276103e72"


class TestTwoTierWarmRound:
    @pytest.fixture(scope="class")
    def city(self):
        dataset = build_scale_dataset(200, users_per_station=2, seed=17)
        return dataset, build_scale_queries(dataset, 8, seed=17)

    def test_a_warm_round_writes_no_filter_body(self, counters, city):
        dataset, queries = city
        config = DIMatchingConfig(epsilon=0, sample_count=8, hash_count=4)
        deployment = ClusterSpec(
            name="two-tier-warm",
            protocol=ProtocolSpec(method="wbf", config=config),
            topology=TopologySpec(kind="two-tier", regions=4),
        )
        with Cluster(deployment, dataset=dataset) as cluster:
            cluster.subscribe(queries)
            cluster.round(k=None)
            counters.bodies = 0
            warm = cluster.round(k=None)
        # The trunk and the regional fan-outs send the artifact the first
        # round encoded, so the warm round writes no filter body at all.
        assert counters.bodies == 0
        assert counters.encodes == 1
        digest = hashlib.sha256(warm.transcript_bytes()).hexdigest()
        assert digest == TWO_TIER_WARM_DIGEST
