"""Unit tests for one distributed round driven through an adopted cluster."""

import ast
from pathlib import Path

import pytest

from repro import wire
from repro.baselines.bf_matching import BloomFilterProtocol
from repro.baselines.local_match import LocalOnlyProtocol
from repro.baselines.naive import NaiveProtocol
from repro.cluster import Cluster, RoundOptions
from repro.core.dimatching import DIMatchingProtocol
from repro.distributed.network import NetworkConfig
from repro.distributed.simulator import SimulationOutcome


class TestAdoptedDrive:
    def test_builds_station_nodes_for_non_empty_stations(self, small_dataset):
        cluster = Cluster.adopt(small_dataset)
        assert 0 < len(cluster.stations) <= small_dataset.station_count
        assert cluster.dataset is small_dataset

    def test_wbf_run_produces_outcome_with_costs(self, small_dataset, small_workload, exact_config):
        cluster = Cluster.adopt(small_dataset)
        outcome = cluster.drive(
            DIMatchingProtocol(exact_config), list(small_workload.queries), k=None
        )
        assert isinstance(outcome, SimulationOutcome)
        assert outcome.method == "wbf"
        assert outcome.costs.downlink_bytes > 0
        assert outcome.costs.uplink_bytes > 0
        assert outcome.costs.message_count >= 2 * len(cluster.stations)
        assert outcome.costs.total_time_s > 0
        assert outcome.costs.report_count >= len(outcome.results)

    def test_naive_run_has_no_filter_downlink(self, small_dataset, small_workload):
        cluster = Cluster.adopt(small_dataset)
        outcome = cluster.drive(NaiveProtocol(epsilon=0), list(small_workload.queries), k=None)
        # Naive downlink is only the per-station control trigger.
        per_station_overhead = outcome.costs.downlink_bytes / len(cluster.stations)
        assert per_station_overhead < 100

    def test_naive_uplink_carries_whole_dataset(self, small_dataset, small_workload):
        from repro import wire

        cluster = Cluster.adopt(small_dataset)
        outcome = cluster.drive(NaiveProtocol(epsilon=0), list(small_workload.queries), k=None)
        # Every stored local pattern crosses the uplink, charged at its real
        # encoded size (varint-packed, so smaller than the estimate model).
        encoded_dataset_bytes = sum(
            len(wire.encode(list(cluster.dataset.local_patterns_at(s.node_id))))
            for s in cluster.stations
        )
        assert outcome.costs.uplink_bytes >= encoded_dataset_bytes

    def test_wbf_uplink_much_smaller_than_naive(self, small_dataset, small_workload, exact_config):
        cluster = Cluster.adopt(small_dataset)
        naive = cluster.drive(NaiveProtocol(epsilon=0), list(small_workload.queries), k=None)
        wbf = cluster.drive(DIMatchingProtocol(exact_config), list(small_workload.queries), k=None)
        assert wbf.costs.uplink_bytes < naive.costs.uplink_bytes / 2

    def test_bf_run(self, small_dataset, small_workload, exact_config):
        cluster = Cluster.adopt(small_dataset)
        outcome = cluster.drive(
            BloomFilterProtocol(exact_config), list(small_workload.queries), k=None
        )
        assert outcome.method == "bf"
        assert outcome.retrieved_user_ids

    def test_network_config_scales_transmission_time(self, small_dataset, small_workload):
        slow = Cluster.adopt(
            small_dataset, NetworkConfig(bandwidth_bytes_per_s=10_000, latency_s=0.0)
        )
        fast = Cluster.adopt(
            small_dataset, NetworkConfig(bandwidth_bytes_per_s=10_000_000, latency_s=0.0)
        )
        queries = list(small_workload.queries)
        slow_outcome = slow.drive(NaiveProtocol(epsilon=0), queries, k=None)
        fast_outcome = fast.drive(NaiveProtocol(epsilon=0), queries, k=None)
        assert (
            slow_outcome.costs.transmission_time_s
            > 10 * fast_outcome.costs.transmission_time_s
        )

    def test_k_cutoff_respected(self, small_dataset, small_workload, exact_config):
        cluster = Cluster.adopt(small_dataset)
        outcome = cluster.drive(
            DIMatchingProtocol(exact_config),
            list(small_workload.queries),
            options=RoundOptions(k=3),
        )
        assert len(outcome.results) <= 3

    def test_storage_accounting_present(self, small_dataset, small_workload, exact_config):
        cluster = Cluster.adopt(small_dataset)
        outcome = cluster.drive(
            DIMatchingProtocol(exact_config), list(small_workload.queries), k=None
        )
        assert outcome.costs.storage_center_bytes > 0
        assert outcome.costs.storage_station_bytes > 0


_PROTOCOLS = {
    "wbf": lambda config: DIMatchingProtocol(config),
    "bf": lambda config: BloomFilterProtocol(config),
    "local": lambda config: LocalOnlyProtocol(epsilon=0),
    "naive": lambda config: NaiveProtocol(epsilon=0),
}


class TestStorageIsCodecBytes:
    """Storage figures are encoded sizes: the artifact once per holder, plus landed payloads."""

    @pytest.mark.parametrize("method", sorted(_PROTOCOLS))
    def test_each_station_stores_the_encoded_artifact(
        self, method, small_dataset, small_workload, exact_config
    ):
        queries = list(small_workload.queries)
        artifact = _PROTOCOLS[method](exact_config).encode(queries)
        artifact_bytes = 0 if artifact is None else wire.encoded_size(artifact)
        cluster = Cluster.adopt(small_dataset)
        outcome = cluster.drive(_PROTOCOLS[method](exact_config), queries, k=None)
        assert outcome.method == method
        assert outcome.costs.storage_station_bytes == artifact_bytes * len(cluster.stations)

    @pytest.mark.parametrize("method", sorted(_PROTOCOLS))
    def test_the_center_stores_the_artifact_and_the_uploaded_payloads(
        self, method, small_dataset, small_workload, exact_config
    ):
        queries = list(small_workload.queries)
        artifact = _PROTOCOLS[method](exact_config).encode(queries)
        artifact_bytes = 0 if artifact is None else wire.encoded_size(artifact)
        outcome = Cluster.adopt(small_dataset).drive(
            _PROTOCOLS[method](exact_config), queries, k=None
        )
        landed = outcome.costs.storage_center_bytes - artifact_bytes
        # Payloads without the envelopes that carried them up.
        assert 0 < landed < outcome.costs.uplink_bytes


class TestPerRoundOverrides:
    """Multi-round driving: per-round station subsets and transport seeds."""

    def test_station_subset_restricts_the_round(self, small_dataset, small_workload, exact_config):
        cluster = Cluster.adopt(small_dataset)
        queries = list(small_workload.queries)
        all_ids = [station.node_id for station in cluster.stations]
        subset = all_ids[:2]
        full = cluster.drive(DIMatchingProtocol(exact_config), queries)
        partial = cluster.drive(
            DIMatchingProtocol(exact_config),
            queries,
            options=RoundOptions(station_ids=subset),
        )
        assert partial.costs.downlink_bytes < full.costs.downlink_bytes
        senders = {entry.sender for entry in partial.transcript} | {
            entry.recipient for entry in partial.transcript
        }
        for excluded in set(all_ids) - set(subset):
            assert excluded not in senders

    def test_station_subset_equal_to_all_matches_default(
        self, small_dataset, small_workload, exact_config
    ):
        cluster = Cluster.adopt(small_dataset)
        queries = list(small_workload.queries)
        all_ids = [station.node_id for station in cluster.stations]
        default = cluster.drive(DIMatchingProtocol(exact_config), queries)
        explicit = cluster.drive(
            DIMatchingProtocol(exact_config),
            queries,
            options=RoundOptions(station_ids=all_ids),
        )
        assert default.transcript_bytes() == explicit.transcript_bytes()
        assert default.results == explicit.results

    def test_unknown_station_id_rejected(self, small_dataset, small_workload, exact_config):
        cluster = Cluster.adopt(small_dataset)
        with pytest.raises(ValueError, match="unknown station ids"):
            cluster.drive(
                DIMatchingProtocol(exact_config),
                list(small_workload.queries),
                options=RoundOptions(station_ids=["bs-on-the-moon"]),
            )

    @pytest.mark.parametrize(
        "override",
        [{"k": True}, {"k": False}, {"net_seed": True}],
        ids=["k-true", "k-false", "net-seed-true"],
    )
    def test_a_bool_is_neither_a_cutoff_nor_a_seed(self, override):
        # bool is an int subclass: k=True would otherwise cut at the top 1.
        (name,) = override
        with pytest.raises(ValueError, match=f"{name} must be"):
            RoundOptions(**override)

    def test_per_round_net_seed_overrides_the_construction_seed(
        self, small_dataset, small_workload, exact_config
    ):
        cluster = Cluster.adopt(
            small_dataset, fault_plan="chaos", net_seed=0, allow_partial=True
        )
        queries = list(small_workload.queries)
        protocol = DIMatchingProtocol(exact_config)
        base = cluster.drive(protocol, queries)
        replayed = cluster.drive(protocol, queries, options=RoundOptions(net_seed=0))
        reseeded = cluster.drive(protocol, queries, options=RoundOptions(net_seed=123))
        assert base.transcript_bytes() == replayed.transcript_bytes()
        assert reseeded.transcript_bytes() != base.transcript_bytes()
        assert reseeded.costs.net_seed == 123


class TestLayering:
    def test_distributed_never_imports_the_cluster_facade(self):
        # The facade sits above the transport layer; an upward import would
        # give a round a second entry point below it.
        import repro.distributed

        offenders = []
        for path in sorted(Path(repro.distributed.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    prefix = "." * node.level
                    modules = [prefix + (node.module or "")]
                else:
                    continue
                for module in modules:
                    if module.startswith(("repro.cluster", "..cluster")):
                        offenders.append(f"{path.name}: {module}")
        assert offenders == []
