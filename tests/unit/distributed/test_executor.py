"""Unit tests for the sharded station executor."""

import pickle
from types import SimpleNamespace

import pytest

from repro.cluster import Cluster
from repro.core.dimatching import DIMatchingProtocol
from repro.distributed.executor import (
    ShardedStationRunner,
    partition_round_robin,
)


class TestPartitioning:
    def test_round_robin_covers_every_index_once(self):
        shards = partition_round_robin(10, 3)
        flat = sorted(index for shard in shards for index in shard)
        assert flat == list(range(10))

    def test_round_robin_balances_sizes(self):
        shards = partition_round_robin(10, 3)
        sizes = sorted(len(shard) for shard in shards)
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_items_drops_empty_shards(self):
        shards = partition_round_robin(2, 5)
        assert len(shards) == 2
        assert all(shard for shard in shards)

    def test_order_preserved_within_shard(self):
        for shard in partition_round_robin(12, 4):
            assert shard == sorted(shard)

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            partition_round_robin(3, 0)


class TestRunnerConfiguration:
    def test_rejects_unknown_executor(self):
        with pytest.raises(ValueError):
            ShardedStationRunner(executor="gpu")

    def test_rejects_negative_shard_count(self):
        with pytest.raises(ValueError):
            ShardedStationRunner(shard_count=-1)

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            ShardedStationRunner(max_workers=0)

    def test_serial_auto_shards_one_per_station(self):
        runner = ShardedStationRunner(executor="serial")
        assert runner.resolve_shard_count(7) == 7

    def test_pool_auto_shards_one_per_worker(self):
        runner = ShardedStationRunner(executor="thread", max_workers=3)
        assert runner.resolve_shard_count(10) == 3
        assert runner.resolve_shard_count(2) == 2

    def test_explicit_shard_count_capped_by_stations(self):
        runner = ShardedStationRunner(executor="serial", shard_count=16)
        assert runner.resolve_shard_count(5) == 5

    def test_zero_stations_zero_shards(self):
        assert ShardedStationRunner().resolve_shard_count(0) == 0


class TestRunnerExecution:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_outcomes_cover_every_station(self, small_dataset, exact_config, executor, small_workload):
        stations = Cluster.adopt(small_dataset).stations
        protocol = DIMatchingProtocol(exact_config)
        artifact = protocol.encode(list(small_workload.queries))
        runner = ShardedStationRunner(executor=executor, max_workers=2)
        outcome = runner.run(protocol, stations, artifact)
        assert list(outcome.reports) == [s.node_id for s in stations]
        assert all(elapsed >= 0 for elapsed in outcome.shard_times)

    def test_empty_station_list(self, exact_config):
        runner = ShardedStationRunner()
        outcome = runner.run(DIMatchingProtocol(exact_config), [], None)
        assert outcome.reports == {}
        assert outcome.shard_times == []


class CountingProtocol(DIMatchingProtocol):
    """Records how many stations each ``match_stations`` call received."""

    def __init__(self, config):
        super().__init__(config)
        self.calls = []

    def match_stations(self, stations, artifact):
        self.calls.append(len(stations))
        return super().match_stations(stations, artifact)


class TestRoundAccounting:
    """One ``match_stations`` call per unit of sequential work, same shard counts."""

    @pytest.mark.parametrize(
        "executor, shard_count, max_workers, expected",
        [
            ("serial", 0, None, None),  # auto: one shard per participant
            ("serial", 3, None, 3),
            ("serial", 99, None, None),  # capped at the participant count
            ("thread", 0, 2, 2),  # auto: one shard per worker
            ("thread", 3, 2, 3),
        ],
    )
    def test_shard_count_is_unchanged(
        self, small_dataset, small_workload, exact_config,
        executor, shard_count, max_workers, expected,
    ):
        protocol = CountingProtocol(exact_config)
        with Cluster.adopt(
            small_dataset, executor=executor, shard_count=shard_count, max_workers=max_workers
        ) as cluster:
            participants = len(cluster.stations)
            outcome = cluster.drive(protocol, list(small_workload.queries))
        shards = participants if expected is None else expected
        assert outcome.costs.shard_count == shards
        if executor == "serial":
            assert protocol.calls == [participants]
        else:
            sizes = [len(shard) for shard in partition_round_robin(participants, shards)]
            assert sorted(protocol.calls) == sorted(sizes)

    @pytest.mark.parametrize("shard_count", [0, 3])
    def test_serial_shards_share_the_one_call_by_station_count(
        self, small_dataset, small_workload, exact_config, monkeypatch, shard_count
    ):
        import repro.distributed.executor as executor_module

        clock = iter([10.0, 12.5])
        monkeypatch.setattr(
            executor_module, "time", SimpleNamespace(perf_counter=lambda: next(clock))
        )
        protocol = CountingProtocol(exact_config)
        stations = Cluster.adopt(small_dataset).stations
        runner = ShardedStationRunner(executor="serial", shard_count=shard_count)
        outcome = runner.run(protocol, stations, protocol.encode(list(small_workload.queries)))
        assert protocol.calls == [len(stations)]
        assert sum(outcome.shard_times) == pytest.approx(2.5)
        sizes = [len(shard) for shard in partition_round_robin(
            len(stations), runner.resolve_shard_count(len(stations))
        )]
        assert outcome.shard_times == pytest.approx([2.5 * size / len(stations) for size in sizes])

    def test_serial_station_time_is_the_largest_share(
        self, small_dataset, small_workload, exact_config, monkeypatch
    ):
        import repro.distributed.executor as executor_module

        clock = iter([10.0, 12.5])
        monkeypatch.setattr(
            executor_module, "time", SimpleNamespace(perf_counter=lambda: next(clock))
        )
        with Cluster.adopt(small_dataset) as cluster:
            participants = len(cluster.stations)
            outcome = cluster.drive(
                DIMatchingProtocol(exact_config), list(small_workload.queries)
            )
        assert outcome.costs.station_time_s == pytest.approx(2.5 / participants)


class TestProcessExecutorPicklability:
    def test_protocol_round_trips_without_matcher_cache(self, small_dataset, small_workload, exact_config):
        protocol = DIMatchingProtocol(exact_config)
        artifact = protocol.encode(list(small_workload.queries))
        # Warm the matcher cache, then pickle: the cache must not travel.
        station = Cluster.adopt(small_dataset).stations[0]
        before = protocol.station_match(station.node_id, station.patterns, artifact)
        clone = pickle.loads(pickle.dumps(protocol))
        assert clone._matchers._matchers == {}
        after = clone.station_match(station.node_id, station.patterns, artifact)
        assert after == before


class TestSharedArtifactHandoff:
    """Shared-memory artifact transfer for the process executor."""

    def _artifact(self, small_workload, exact_config):
        protocol = DIMatchingProtocol(exact_config)
        return protocol, protocol.encode(list(small_workload.queries))

    def test_export_and_load_round_trip(self, small_workload, exact_config):
        import repro.distributed.executor as executor_module
        from repro.distributed.executor import (
            export_shared_artifact,
            _load_shared_artifact,
        )

        from repro import wire

        _, artifact = self._artifact(small_workload, exact_config)
        exported = export_shared_artifact(artifact)
        assert exported is not None
        token, segment = exported
        try:
            executor_module._shared_artifact_cache = None
            loaded = _load_shared_artifact(token)
            # The worker decodes with the token's resolved bit backend, so
            # compare against the same decode of the canonical bytes (the
            # config's "auto" backend is pinned to its resolution either way).
            assert loaded == wire.decode(wire.encode_cached(artifact), backend=token.backend)
            # A second load with the same content key is served from cache
            # even after the segment is gone (cross-round reuse).
            assert _load_shared_artifact(token) is loaded
        finally:
            executor_module._shared_artifact_cache = None
            segment.close()
            segment.unlink()

    def test_corrupted_segment_is_rejected(self, small_workload, exact_config):
        import dataclasses

        import repro.distributed.executor as executor_module
        from repro.distributed.executor import (
            export_shared_artifact,
            _load_shared_artifact,
        )

        _, artifact = self._artifact(small_workload, exact_config)
        token, segment = export_shared_artifact(artifact)
        try:
            executor_module._shared_artifact_cache = None
            bad_token = dataclasses.replace(token, crc=token.crc ^ 0xFFFF)
            with pytest.raises(ValueError, match="checksum"):
                _load_shared_artifact(bad_token)
        finally:
            executor_module._shared_artifact_cache = None
            segment.close()
            segment.unlink()

    def test_unencodable_artifact_raises(self):
        from repro.distributed.executor import export_shared_artifact
        from repro.wire.errors import UnsupportedWireTypeError

        with pytest.raises(UnsupportedWireTypeError):
            export_shared_artifact(object())

    def test_process_round_matches_serial(self, small_dataset, small_workload, exact_config):
        protocol = DIMatchingProtocol(exact_config)
        artifact = protocol.encode(list(small_workload.queries))
        stations = Cluster.adopt(small_dataset).stations
        serial = ShardedStationRunner(executor="serial").run(protocol, stations, artifact)
        with ShardedStationRunner(executor="process", max_workers=2) as runner:
            shared = runner.run(protocol, stations, artifact)
        assert shared.reports == serial.reports
