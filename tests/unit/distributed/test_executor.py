"""Unit tests for the station runner: one timed ``match_stations`` call per round."""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.distributed
import repro.distributed.executor as executor_module
from repro.cli import main
from repro.cluster import Cluster, ClusterSpec
from repro.cluster.spec import ExecutorSpec, TransportSpec
from repro.core.dimatching import DIMatchingProtocol
from repro.core.exceptions import ConfigurationError
from repro.distributed.executor import ShardedStationRunner
from repro.distributed.metrics import CostReport
from repro.distributed.transport.tcp import TcpTransport, TcpTransportManager
from repro.evaluation.experiments import run_comparison, sweep_query_counts
from repro.workloads import run_workload

_SRC = Path(__file__).resolve().parents[3] / "src"


class TestRunnerExecution:
    def test_outcomes_cover_every_station(self, small_dataset, exact_config, small_workload):
        stations = Cluster.adopt(small_dataset).stations
        protocol = DIMatchingProtocol(exact_config)
        artifact = protocol.encode(list(small_workload.queries))
        outcome = ShardedStationRunner().run(protocol, stations, artifact)
        assert list(outcome.reports) == [s.node_id for s in stations]
        assert outcome.station_time_s >= 0

    def test_empty_station_list(self, exact_config):
        runner = ShardedStationRunner()
        outcome = runner.run(DIMatchingProtocol(exact_config), [], None)
        assert outcome.reports == {}
        assert outcome.station_time_s == 0.0


class CountingProtocol(DIMatchingProtocol):
    """Records how many stations each ``match_stations`` call received."""

    def __init__(self, config):
        super().__init__(config)
        self.calls = []

    def match_stations(self, stations, artifact):
        self.calls.append(len(stations))
        return super().match_stations(stations, artifact)


def _frozen_clock(monkeypatch):
    """Make the runner's one timed call take exactly 2.5 s."""
    clock = iter([10.0, 12.5])
    monkeypatch.setattr(
        executor_module, "time", SimpleNamespace(perf_counter=lambda: next(clock))
    )


class TestRoundAccounting:
    """One ``match_stations`` call per round, its time shared by the stations."""

    def test_a_round_runs_one_call_over_every_station(
        self, small_dataset, small_workload, exact_config
    ):
        protocol = CountingProtocol(exact_config)
        with Cluster.adopt(small_dataset) as cluster:
            participants = len(cluster.stations)
            cluster.drive(protocol, list(small_workload.queries))
        assert protocol.calls == [participants]

    def test_each_station_is_charged_an_equal_share_of_the_call(
        self, small_dataset, small_workload, exact_config, monkeypatch
    ):
        _frozen_clock(monkeypatch)
        protocol = CountingProtocol(exact_config)
        stations = Cluster.adopt(small_dataset).stations
        outcome = ShardedStationRunner().run(
            protocol, stations, protocol.encode(list(small_workload.queries))
        )
        assert protocol.calls == [len(stations)]
        assert outcome.station_time_s == pytest.approx(2.5 / len(stations))

    def test_the_round_reports_the_station_share(
        self, small_dataset, small_workload, exact_config, monkeypatch
    ):
        _frozen_clock(monkeypatch)
        with Cluster.adopt(small_dataset) as cluster:
            participants = len(cluster.stations)
            outcome = cluster.drive(
                DIMatchingProtocol(exact_config), list(small_workload.queries)
            )
        assert outcome.costs.station_time_s == pytest.approx(2.5 / participants)


#: Every call a removed executor or TCP setting used to reach, with the
#: keywords it no longer takes.
FORMER_KNOBS = [
    (ShardedStationRunner, ("executor", "shard_count", "max_workers")),
    (Cluster.adopt, ("executor", "shard_count", "max_workers")),
    (ClusterSpec.from_workload, ("executor", "shard_count")),
    (run_workload, ("executor", "shard_count")),
    (run_comparison, ("executor", "shard_count")),
    (sweep_query_counts, ("executor", "shard_count")),
    (TcpTransportManager.create_transport, ("ack_timeout_s", "delay_scale")),
    (TcpTransport, ("ack_timeout_s", "delay_scale")),
]

#: What the process pool and its shared-memory handoff defined.
DELETED_EXECUTOR_NAMES = (
    "ProcessPoolExecutor",
    "shared_memory",
    "SharedArtifactToken",
    "export_shared_artifact",
    "_attach_untracked",
    "_shared_artifact_cache",
    "_load_shared_artifact",
    "_match_shard_shared",
    "partition_round_robin",
)
DELETED_RUNNER_NAMES = (
    "executor",
    "resolve_worker_count",
    "resolve_shard_count",
    "_ensure_pool",
    "close",
    "__enter__",
    "__exit__",
)

#: A serial round in a fresh interpreter, printing the modules it imported.
_FRESH_ROUND = """
import json, sys
import repro.cluster
from repro.cluster import Cluster
from repro.core.config import DIMatchingConfig
from repro.core.dimatching import DIMatchingProtocol
from repro.datagen.workload import DatasetSpec, build_dataset, build_query_workload

dataset = build_dataset(DatasetSpec(users_per_category=3, station_count=3, seed=5))
queries = list(build_query_workload(dataset, query_count=2, epsilon=0, seed=5).queries)
with Cluster.adopt(dataset) as cluster:
    outcome = cluster.drive(DIMatchingProtocol(DIMatchingConfig(epsilon=0)), queries)
assert outcome.costs.report_count > 0
print(json.dumps(sorted(sys.modules)))
"""


class TestOneExecutor:
    def test_the_executor_spec_accepts_only_serial(self):
        assert [field.name for field in dataclasses.fields(ExecutorSpec)] == ["kind"]
        with pytest.raises(ConfigurationError, match="executor kind"):
            ExecutorSpec(kind="process")
        spec = ClusterSpec(name="g", executor=ExecutorSpec(kind="serial"))
        assert spec.executor.kind == "serial"

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
            # body runs, so no cluster or socket is built here.
            with pytest.raises(TypeError, match=f"{keyword}|takes no arguments"):
                target(**{keyword: 2})

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--executor", "serial"],
            ["workload", "run", "steady-state", "--executor", "serial"],
            ["compare", "--shards", "2"],
            ["compare", "--executor", "thread"],
            ["workload", "run", "steady-state", "--shards", "2"],
        ],
        ids=[
            "compare-executor",
            "workload-run-executor",
            "compare-shards",
            "compare-thread",
            "workload-run-shards",
        ],
    )
    def test_the_cli_refuses_a_removed_flag(self, argv):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2

    def test_the_pool_and_its_handoff_are_gone(self):
        assert [name for name in DELETED_EXECUTOR_NAMES if hasattr(executor_module, name)] == []
        assert [name for name in DELETED_RUNNER_NAMES if hasattr(ShardedStationRunner, name)] == []
        assert "partition_round_robin" not in repro.distributed.__all__

    def test_the_cost_report_names_no_executor_or_shard_count(self):
        names = {field.name for field in dataclasses.fields(CostReport)}
        assert not {"executor", "shard_count"} & names

    def test_a_serial_round_imports_no_shared_memory(self):
        completed = subprocess.run(
            [sys.executable, "-c", _FRESH_ROUND],
            env={**os.environ, "PYTHONPATH": str(_SRC)},
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        assert completed.returncode == 0, completed.stderr
        modules = json.loads(completed.stdout)
        assert "repro.cluster" in modules
        assert "multiprocessing.shared_memory" not in modules
