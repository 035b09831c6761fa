"""Behavior of the ``Cluster`` facade verbs and the unified session handle."""

import hashlib
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    Cluster,
    ClusterSpec,
    ClusterStateError,
    ProtocolSpec,
    RoundOptions,
    RoundReport,
)
from repro.core import ContinuousMatchingSession, DIMatchingProtocol
from repro.core.config import DIMatchingConfig
from repro.core.exceptions import ConfigurationError
from repro.datagen import SourceSpec
from repro.datagen.workload import build_dataset, build_query_workload
from repro.timeseries.pattern import PatternSet


@pytest.fixture(scope="module")
def tiny_dataset(tiny_dataset_spec):
    return build_dataset(tiny_dataset_spec)


def _streaming_cluster() -> Cluster:
    """A lazily served cluster: its source caps residency at two stations."""
    spec = SourceSpec(
        kind="streaming", station_count=4, users_per_station=3, max_resident=2, seed=7
    )
    return Cluster(
        ClusterSpec(
            name="lazy",
            protocol=ProtocolSpec(
                method="wbf",
                config=DIMatchingConfig(epsilon=0, sample_count=12, hash_count=4),
            ),
            source=spec,
        )
    )


class TestRoundOptions:
    def test_merge_rejects_both_spellings(self):
        with pytest.raises(ValueError, match="not both"):
            RoundOptions.merge(RoundOptions(net_seed=1), net_seed=2)

    def test_merge_folds_loose_keywords(self):
        merged = RoundOptions.merge(None, station_ids=["bs-a"], net_seed=7, k=3)
        assert merged == RoundOptions(station_ids=("bs-a",), net_seed=7, k=3)

    def test_station_ids_coerced_to_strings(self):
        assert RoundOptions(station_ids=[1, 2]).station_ids == ("1", "2")

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError, match="k must be"):
            RoundOptions(k=-1)

    def test_invalid_net_seed_rejected(self):
        with pytest.raises(ValueError, match="net_seed"):
            RoundOptions(net_seed="tuesday")


class TestClusterConstruction:
    def test_spec_without_dataset_requires_adoption(self):
        with pytest.raises(ConfigurationError, match="dataset"):
            Cluster(ClusterSpec(name="no-data"))

    def test_non_spec_rejected(self, cluster):
        with pytest.raises(ConfigurationError, match="ClusterSpec"):
            Cluster({"method": "wbf"})

    def test_adopting_a_prebuilt_dataset(self, wbf_spec, cluster):
        adopted = Cluster(wbf_spec.with_updates(dataset=None), dataset=cluster.dataset)
        assert adopted.dataset is cluster.dataset
        assert adopted.station_ids == cluster.station_ids

    def test_stations_are_the_pattern_bearing_ones(self, cluster):
        assert 0 < len(cluster.stations) <= cluster.dataset.station_count
        for station in cluster.stations:
            assert station.stored_pattern_count > 0

    def test_adopt_rejects_bad_knobs_before_any_round(self, small_dataset):
        with pytest.raises(ValueError, match="unknown fault profile"):
            Cluster.adopt(small_dataset, fault_plan="meteor-strike")


class TestRounds:
    def test_round_requires_a_subscription(self, cluster):
        with pytest.raises(ClusterStateError, match="subscribe"):
            cluster.round()

    def test_round_returns_a_typed_report(self, cluster, queries):
        cluster.subscribe(queries)
        report = cluster.round(RoundOptions(k=5))
        assert isinstance(report, RoundReport)
        assert report.mode == "round"
        assert report.round_index == 0
        assert report.query_count == len(queries)
        assert report.active_station_count == len(cluster.stations)
        assert report.downlink_bytes > 0 and report.uplink_bytes > 0
        assert len(report.results) <= 5
        assert report.costs is not None
        assert report.costs.method == "wbf"

    def test_rounds_accumulate_the_replay_token(self, cluster, queries):
        cluster.subscribe(queries)
        first = cluster.round()
        second = cluster.round()
        assert cluster.round_index == 2
        # The digest of both rounds' transcripts under their round headers.
        replay = b"".join(
            (
                b"== round 0 ==\n",
                first.transcript_bytes(),
                b"\n== round 1 ==\n",
                second.transcript_bytes(),
                b"\n",
            )
        )
        assert cluster.transcript_digest() == hashlib.sha256(replay).hexdigest()

    def test_round_accepts_loose_keywords(self, cluster, queries):
        cluster.subscribe(queries)
        subset = list(cluster.station_ids)[:2]
        report = cluster.round(station_ids=subset, net_seed=9, k=4)
        assert report.active_station_count == len(subset)

    def test_unknown_station_id_rejected(self, cluster, queries):
        cluster.subscribe(queries)
        with pytest.raises(ValueError, match="unknown station ids"):
            cluster.round(RoundOptions(station_ids=("bs-on-the-moon",)))

    def test_same_seed_replays_byte_identically(self, wbf_spec, queries):
        transcripts = []
        for _ in range(2):
            with Cluster(wbf_spec) as deployed:
                deployed.subscribe(queries)
                deployed.round(RoundOptions(net_seed=3))
                transcripts.append(deployed.transcript_digest())
        assert transcripts[0] == transcripts[1]

    def test_a_pattern_the_wire_cannot_carry_fails_the_round(self):
        # A naive round uploads raw pattern values; one beyond the wire's
        # 64-bit range has no encoding, so the round raises instead of
        # charging the upload an estimate.
        from repro.datagen.mobility import UserMobility
        from repro.datagen.workload import DistributedDataset, UserProfile
        from repro.timeseries.pattern import LocalPattern
        from repro.timeseries.query import QueryPattern
        from repro.wire.errors import UnsupportedWireTypeError

        mobility = UserMobility("u", "bs-0", "bs-1", "bs-0")
        local = {
            "bs-0": {"u": LocalPattern("u", [1], "bs-0")},
            "bs-1": {"u": LocalPattern("u", [2**70], "bs-1")},
        }
        dataset = DistributedDataset(
            ["bs-0", "bs-1"], {"u": UserProfile("u", "student", mobility)}, local, 1, 24
        )
        spec = ClusterSpec(name="oversized", protocol=ProtocolSpec(method="naive"))
        with Cluster(spec, dataset=dataset) as deployed:
            deployed.subscribe([QueryPattern("q", [LocalPattern("u", [1], "bs-0")])])
            with pytest.raises(UnsupportedWireTypeError, match="64-bit"):
                deployed.round()


class TestPublishSubscribe:
    def test_publish_replaces_a_station(self, cluster):
        station = cluster.stations[0]
        patterns = cluster.dataset.local_patterns_at(station.node_id)
        count = cluster.publish(station.node_id, patterns)
        assert count == len(patterns)
        assert cluster.station_ids == tuple(s.node_id for s in cluster.stations)

    def test_publish_unknown_station_rejected(self, cluster):
        with pytest.raises(ValueError, match="unknown station id"):
            cluster.publish("bs-nowhere", PatternSet([]))

    def test_publish_requires_a_pattern_set(self, cluster):
        with pytest.raises(TypeError, match="PatternSet"):
            cluster.publish(cluster.station_ids[0], ["not-patterns"])

    def test_retire_removes_the_station_from_rounds(self, cluster, queries):
        cluster.subscribe(queries)
        victim = cluster.station_ids[0]
        cluster.retire(victim)
        assert victim not in cluster.station_ids
        report = cluster.round()
        assert report.active_station_count == len(cluster.station_ids)

    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    def test_retire_unknown_station_rejected_like_publish(self, cluster, lazy):
        deployed = _streaming_cluster() if lazy else cluster
        with deployed:
            before = deployed.station_ids
            with pytest.raises(ValueError, match="unknown station id") as published:
                deployed.publish("bs-nowhere", PatternSet([]))
            with pytest.raises(ValueError, match="unknown station id") as retired:
                deployed.retire("bs-nowhere")
            assert str(retired.value) == str(published.value)
            assert deployed.station_ids == before

    def test_retiring_an_unpublished_station_is_a_no_op(self, cluster, queries):
        victim, other = cluster.station_ids[:2]
        cluster.retire(victim)
        after_first = cluster.station_ids
        with cluster.open_session(mode="deltas") as session:
            session.subscribe(queries)
            session.publish(other, cluster.dataset.local_patterns_at(other))
            session.retire(victim)
            assert session.active_station_ids == (other,)
        assert cluster.station_ids == after_first

    def test_subscribe_requires_queries(self, cluster):
        with pytest.raises(ValueError):
            cluster.subscribe([])


class TestPublishOrder:
    """publish() and retire() are O(1) dict writes; every reader that
    observes order still sees dataset order, and rounds cannot tell."""

    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["publish", "retire"]), st.integers(0, 3)),
            max_size=10,
        ),
        first_check=st.sampled_from(["round", "station_ids", "stations", "snapshot"]),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_interleaving_reads_and_rounds_in_dataset_order(
        self, wbf_spec, tiny_dataset, ops, first_check
    ):
        spec = wbf_spec.with_updates(dataset=None)
        queries = list(
            build_query_workload(tiny_dataset, query_count=3, epsilon=0, seed=5).queries
        )
        with Cluster(spec, dataset=tiny_dataset) as mutated, Cluster(
            spec, dataset=tiny_dataset
        ) as fresh:
            bearing = mutated.station_ids
            live = set(bearing)
            # Retiring the first station and publishing it again at the end
            # always leaves it last in insertion order.
            for verb, index in [("retire", 0), *ops, ("publish", 0)]:
                station_id = bearing[index % len(bearing)]
                if verb == "publish":
                    mutated.publish(station_id, tiny_dataset.local_patterns_at(station_id))
                    live.add(station_id)
                else:
                    mutated.retire(station_id)
                    live.discard(station_id)
            final = [sid for sid in bearing if sid in live]

            def round_order():
                """The stations a round served, checked against a fresh
                cluster that holds the same final stations."""
                for station_id in set(bearing) - live:
                    fresh.retire(station_id)
                reports = []
                for deployed in (mutated, fresh):
                    deployed.subscribe(queries)
                    reports.append(deployed.round(net_seed=3))
                assert reports[0].transcript_bytes() == reports[1].transcript_bytes()
                assert reports[0].results == reports[1].results
                return final

            orders = {
                "round": round_order,
                "station_ids": lambda: list(mutated.station_ids),
                "stations": lambda: [station.node_id for station in mutated.stations],
                "snapshot": lambda: [sid for sid, _ in mutated.snapshot().patterns],
            }
            # Every reader must restore order itself: whichever runs first
            # cannot lean on another having re-sorted the stations.
            for order in [orders.pop(first_check), *orders.values()]:
                assert order() == final


class TestSessionHandle:
    def test_mode_is_validated(self, cluster):
        with pytest.raises(ConfigurationError, match="session mode"):
            cluster.open_session(mode="turbo")

    def test_only_one_session_at_a_time(self, cluster):
        cluster.open_session(mode="rounds")
        with pytest.raises(ClusterStateError, match="already open"):
            cluster.open_session(mode="rounds")

    def test_closing_frees_the_slot(self, cluster):
        with cluster.open_session(mode="rounds"):
            pass
        cluster.open_session(mode="deltas")

    def test_rounds_mode_steps_are_full_rounds(self, cluster, queries):
        session = cluster.open_session(mode="rounds")
        session.subscribe(queries)
        report = session.step(RoundOptions(k=5))
        assert report.mode == "round"
        assert report.costs is not None

    def test_delta_session_requires_subscription_before_publish(self, cluster):
        session = cluster.open_session(mode="deltas")
        station = cluster.stations[0]
        with pytest.raises(ClusterStateError, match="subscribe"):
            session.publish(
                station.node_id, cluster.dataset.local_patterns_at(station.node_id)
            )

    def test_failed_publish_leaves_cluster_state_untouched(self, cluster):
        # A publish the delta session refuses must not leak into the cluster:
        # otherwise the cluster and the session would silently diverge.
        session = cluster.open_session(mode="deltas")
        first, second = cluster.station_ids[0], cluster.station_ids[1]
        before = cluster.stations[0].patterns
        with pytest.raises(ClusterStateError, match="subscribe"):
            session.publish(first, cluster.dataset.local_patterns_at(second))
        assert cluster.stations[0].patterns is before

    def test_delta_steps_ship_only_dirty_stations(self, cluster, queries):
        session = cluster.open_session(mode="deltas")
        session.subscribe(queries)
        for station_id in cluster.station_ids:
            session.publish(station_id, cluster.dataset.local_patterns_at(station_id))
        first = session.step(RoundOptions(net_seed=1))
        assert first.mode == "delta"
        assert set(first.delivered_station_ids) == set(cluster.station_ids)
        assert first.downlink_bytes > 0  # initial dissemination to every station
        # Nothing changed: the next step ships nothing.
        second = session.step(RoundOptions(net_seed=2))
        assert second.delivered_station_ids == ()
        assert second.uplink_bytes == 0 and second.downlink_bytes == 0
        # The ranking keeps serving the last delivered state.
        assert second.results == first.results
        # One dirty station re-ships alone.
        victim = cluster.station_ids[0]
        session.publish(victim, cluster.dataset.local_patterns_at(victim))
        third = session.step(RoundOptions(net_seed=3))
        assert third.delivered_station_ids == (victim,)
        assert third.downlink_bytes == 0  # no rotation, no joiners

    def test_delta_rotation_recharges_the_downlink(self, cluster, queries):
        session = cluster.open_session(mode="deltas")
        session.subscribe(queries)
        for station_id in cluster.station_ids:
            session.publish(station_id, cluster.dataset.local_patterns_at(station_id))
        session.step(RoundOptions(net_seed=1))
        session.subscribe(queries[:2])  # rotate the campaign
        rotated = session.step(RoundOptions(net_seed=2))
        assert rotated.downlink_bytes > 0
        assert set(rotated.delivered_station_ids) == set(cluster.station_ids)

    def test_delta_step_rejects_station_subsets(self, cluster, queries):
        session = cluster.open_session(mode="deltas")
        session.subscribe(queries)
        session.publish(
            cluster.station_ids[0],
            cluster.dataset.local_patterns_at(cluster.station_ids[0]),
        )
        with pytest.raises(ValueError, match="publish\\(\\)/retire\\(\\)"):
            session.step(RoundOptions(station_ids=cluster.station_ids[:1]))

    def test_restore_invalidates_the_handle(self, cluster, queries):
        cluster.subscribe(queries)
        snapshot = cluster.snapshot()
        session = cluster.open_session(mode="rounds")
        cluster.restore(snapshot)
        with pytest.raises(ClusterStateError, match="invalidated"):
            session.step()

    def test_both_modes_share_the_replay_framing(self, wbf_spec, queries):
        with Cluster(wbf_spec) as deployed:
            session = deployed.open_session(mode="deltas")
            session.subscribe(queries)
            for station_id in deployed.station_ids:
                session.publish(
                    station_id, deployed.dataset.local_patterns_at(station_id)
                )
            report = session.step(RoundOptions(net_seed=1))
            replay = b"== round 0 ==\n" + report.transcript_bytes() + b"\n"
            assert deployed.transcript_digest() == hashlib.sha256(replay).hexdigest()


class TestDriveParityWithRound:
    def test_round_matches_an_adopted_drive(self, cluster, queries, wbf_spec):
        cluster.subscribe(queries)
        report = cluster.round(RoundOptions(net_seed=5, k=6))
        with Cluster.adopt(cluster.dataset) as adopted:
            outcome = adopted.drive(
                wbf_spec.protocol.build(), queries, options=RoundOptions(net_seed=5, k=6)
            )
        assert outcome.results == report.results
        assert outcome.costs.downlink_bytes == report.downlink_bytes
        assert outcome.costs.uplink_bytes == report.uplink_bytes
        assert outcome.transcript_bytes() == report.transcript_bytes()

    def test_drive_rejects_mixed_override_spellings(
        self, small_dataset, small_workload, exact_config
    ):
        cluster = Cluster.adopt(small_dataset)
        # The cutoff is an override like any other: k alongside options is
        # rejected, never silently dropped.
        with pytest.raises(ValueError, match="not both"):
            cluster.drive(
                DIMatchingProtocol(exact_config),
                list(small_workload.queries),
                3,
                options=RoundOptions(k=10),
            )


class TestNoDeprecationWarnings:
    def test_method_comparison_does_not_warn(self, small_dataset, small_workload):
        from repro.evaluation.experiments import run_comparison

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_comparison(small_dataset, small_workload, methods=("wbf",))

    def test_facade_delta_session_does_not_warn(
        self, small_dataset, small_workload, exact_config
    ):
        spec = ClusterSpec(
            name="no-warn",
            protocol=ProtocolSpec(method="wbf", config=exact_config),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with Cluster(spec, dataset=small_dataset) as deployed:
                session = deployed.open_session(mode="deltas")
                session.subscribe(list(small_workload.queries))
                for station_id in deployed.station_ids:
                    session.publish(
                        station_id, deployed.dataset.local_patterns_at(station_id)
                    )
                session.step(RoundOptions(net_seed=1))


class TestDeltaStepParityWithDirectSession:
    def test_direct_session_ranks_like_a_facade_delta_step(
        self, small_dataset, small_workload, exact_config
    ):
        queries = list(small_workload.queries)
        direct = ContinuousMatchingSession(DIMatchingProtocol(exact_config), queries)
        for station_id in small_dataset.station_ids:
            patterns = small_dataset.local_patterns_at(station_id)
            if len(patterns) > 0:
                direct.update_station(station_id, patterns)

        spec = ClusterSpec(
            name="parity",
            protocol=ProtocolSpec(method="wbf", config=exact_config),
        )
        with Cluster(spec, dataset=small_dataset) as deployed:
            session = deployed.open_session(mode="deltas")
            session.subscribe(queries)
            for station_id in deployed.station_ids:
                session.publish(
                    station_id, deployed.dataset.local_patterns_at(station_id)
                )
            report = session.step(RoundOptions(net_seed=0))
        assert direct.current_results(None) == report.results

class TestDriveCutoff:
    def test_options_cutoff_ranks_like_the_positional_one(
        self, small_dataset, small_workload, exact_config
    ):
        queries = list(small_workload.queries)
        with Cluster.adopt(small_dataset) as cluster:
            positional = cluster.drive(DIMatchingProtocol(exact_config), queries, 3)
            via_options = cluster.drive(
                DIMatchingProtocol(exact_config), queries, options=RoundOptions(k=3)
            )
            uncut = cluster.drive(DIMatchingProtocol(exact_config), queries)
        assert 0 < len(via_options.results) <= 3
        assert via_options.results == positional.results
        assert via_options.results.user_ids() == uncut.results.user_ids()[:3]
