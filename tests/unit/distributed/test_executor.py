"""Unit tests for the sharded station executor."""

import dataclasses
import inspect
import os
import pickle
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.cluster import Cluster, ClusterSpec
from repro.cluster.spec import ExecutorSpec, TransportSpec
from repro.core.config import EXECUTOR_CHOICES
from repro.core.dimatching import DIMatchingProtocol
from repro.core.exceptions import ConfigurationError
from repro.distributed.executor import (
    ShardedStationRunner,
    partition_round_robin,
)
from repro.distributed.transport.tcp import TcpTransport, TcpTransportManager
from repro.evaluation.experiments import run_comparison, sweep_query_counts
from repro.workloads import run_workload

from ...conftest import shared_segments


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

    def test_serial_shards_one_per_station(self):
        runner = ShardedStationRunner(executor="serial")
        assert runner.resolve_shard_count(7) == 7

    def test_process_shards_one_per_worker(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        runner = ShardedStationRunner(executor="process")
        assert runner.resolve_shard_count(10) == 3
        assert runner.resolve_shard_count(2) == 2

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_zero_stations_zero_shards(self, executor):
        assert ShardedStationRunner(executor).resolve_shard_count(0) == 0

    def test_workers_are_the_cpus_this_process_may_run_on(self, monkeypatch):
        # A process pinned to one CPU of many starts one worker, not one per CPU.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert ShardedStationRunner.resolve_worker_count() == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert ShardedStationRunner("process").resolve_worker_count() == 3

    def test_workers_fall_back_to_the_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert ShardedStationRunner.resolve_worker_count() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert ShardedStationRunner.resolve_worker_count() == 1


class TestRunnerExecution:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_outcomes_cover_every_station(self, small_dataset, exact_config, executor, small_workload):
        stations = Cluster.adopt(small_dataset).stations
        protocol = DIMatchingProtocol(exact_config)
        artifact = protocol.encode(list(small_workload.queries))
        with ShardedStationRunner(executor=executor) as runner:
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


class FailingProtocol(DIMatchingProtocol):
    """Raises inside whichever worker matches its stations."""

    def match_stations(self, stations, artifact):
        raise RuntimeError("shard failed")


class TestRoundAccounting:
    """One ``match_stations`` call per unit of sequential work."""

    def test_serial_runs_one_call_with_one_shard_per_station(
        self, small_dataset, small_workload, exact_config
    ):
        protocol = CountingProtocol(exact_config)
        with Cluster.adopt(small_dataset, executor="serial") as cluster:
            participants = len(cluster.stations)
            outcome = cluster.drive(protocol, list(small_workload.queries))
        assert outcome.costs.shard_count == participants
        assert protocol.calls == [participants]

    def test_process_runs_one_shard_per_worker(
        self, small_dataset, small_workload, exact_config
    ):
        # A worker's calls are not visible here, so the partition shows in the
        # shard times the workers return and the shard count the round reports.
        protocol = DIMatchingProtocol(exact_config)
        stations = Cluster.adopt(small_dataset).stations
        shards = min(ShardedStationRunner.resolve_worker_count(), len(stations))
        with ShardedStationRunner(executor="process") as runner:
            outcome = runner.run(protocol, stations, protocol.encode(list(small_workload.queries)))
        assert len(outcome.shard_times) == shards
        with Cluster.adopt(small_dataset, executor="process") as cluster:
            report = cluster.drive(protocol, list(small_workload.queries))
        assert report.costs.shard_count == shards
        assert report.costs.executor == "process"

    def test_serial_shards_share_the_one_call_equally(
        self, small_dataset, small_workload, exact_config, monkeypatch
    ):
        import repro.distributed.executor as executor_module

        clock = iter([10.0, 12.5])
        monkeypatch.setattr(
            executor_module, "time", SimpleNamespace(perf_counter=lambda: next(clock))
        )
        protocol = CountingProtocol(exact_config)
        stations = Cluster.adopt(small_dataset).stations
        runner = ShardedStationRunner(executor="serial")
        outcome = runner.run(protocol, stations, protocol.encode(list(small_workload.queries)))
        assert protocol.calls == [len(stations)]
        assert outcome.shard_times == pytest.approx([2.5 / len(stations)] * len(stations))

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
            assert loaded == wire.decode(wire.encode_cached(artifact))
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
        with ShardedStationRunner(executor="process") as runner:
            shared = runner.run(protocol, stations, artifact)
        assert shared.reports == serial.reports

    def test_a_failing_shard_reraises_and_unlinks_the_segment(
        self, small_dataset, small_workload, exact_config
    ):
        protocol = FailingProtocol(exact_config)
        artifact = protocol.encode(list(small_workload.queries))
        stations = Cluster.adopt(small_dataset).stations
        before = shared_segments()
        with ShardedStationRunner(executor="process") as runner:
            with pytest.raises(RuntimeError, match="shard failed"):
                runner.run(protocol, stations, artifact)
        assert shared_segments() - before == set()


#: Every call a removed executor or TCP setting used to reach, with the
#: keywords it no longer takes.
FORMER_KNOBS = [
    (ShardedStationRunner, ("shard_count", "max_workers")),
    (Cluster.adopt, ("shard_count", "max_workers")),
    (ClusterSpec.from_workload, ("shard_count",)),
    (run_workload, ("shard_count",)),
    (run_comparison, ("shard_count",)),
    (sweep_query_counts, ("shard_count",)),
    (TcpTransportManager.create_transport, ("ack_timeout_s", "delay_scale")),
    (TcpTransport, ("ack_timeout_s", "delay_scale")),
]


class TestTwoExecutorsAndNoUnturnedKnobs:
    def test_the_executors_are_serial_and_process(self):
        assert EXECUTOR_CHOICES == ("serial", "process")

    def test_the_executor_spec_holds_only_its_kind(self):
        assert [field.name for field in dataclasses.fields(ExecutorSpec)] == ["kind"]
        with pytest.raises(ConfigurationError, match="executor kind"):
            ExecutorSpec(kind="thread")

    def test_the_transport_spec_has_no_ack_timeout_or_delay_scale(self):
        names = {field.name for field in dataclasses.fields(TransportSpec)}
        assert not {"tcp_ack_timeout_s", "tcp_delay_scale"} & names
        assert "tcp_connect_timeout_s" in names

    @pytest.mark.parametrize(
        "target, keywords", FORMER_KNOBS, ids=[target.__qualname__ for target, _ in FORMER_KNOBS]
    )
    def test_no_call_takes_a_removed_keyword(self, target, keywords):
        for keyword in keywords:
            assert keyword not in inspect.signature(target).parameters
            # The keyword is refused while the arguments bind, before any
            # body runs, so no cluster, pool or socket is built here.
            with pytest.raises(TypeError, match=keyword):
                target(**{keyword: 2})

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--shards", "2"],
            ["compare", "--executor", "thread"],
            ["workload", "run", "steady-state", "--shards", "2"],
        ],
        ids=["compare-shards", "compare-thread", "workload-run-shards"],
    )
    def test_the_cli_refuses_a_removed_flag(self, argv):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
