"""Validation of the typed cluster specification."""

from dataclasses import fields

import pytest

from repro.cluster import (
    ClusterSpec,
    ExecutorSpec,
    FaultSpec,
    ProtocolSpec,
    TransportSpec,
)
from repro.core.config import DIMatchingConfig, FAULT_PROFILE_CHOICES
from repro.core.exceptions import ConfigurationError
from repro.datagen.workload import DatasetSpec
from repro.distributed.network import NetworkConfig
from repro.workloads import get_scenario


class TestProtocolSpec:
    def test_defaults_build_the_wbf_protocol(self):
        protocol = ProtocolSpec().build()
        assert protocol.name == "wbf"

    @pytest.mark.parametrize("method", ["naive", "local", "bf", "wbf"])
    def test_every_method_builds(self, method):
        protocol = ProtocolSpec(method=method, config=DIMatchingConfig(epsilon=2)).build()
        assert protocol.name == method

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError, match="method"):
            ProtocolSpec(method="quantum")

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ConfigurationError, match="epsilon"):
            ProtocolSpec(config=DIMatchingConfig(epsilon=-1))

    def test_config_passed_through(self):
        config = DIMatchingConfig(epsilon=2, sample_count=5)
        assert ProtocolSpec(method="wbf", config=config).config is config

    def test_wrong_config_type_rejected(self):
        with pytest.raises(ConfigurationError, match="config"):
            ProtocolSpec(config={"sample_count": 5})

    def test_config_defaults_and_is_never_none(self):
        assert ProtocolSpec().config == DIMatchingConfig()
        with pytest.raises(ConfigurationError, match="config must be a DIMatchingConfig"):
            ProtocolSpec(config=None)

    @pytest.mark.parametrize("method", ["naive", "local"])
    def test_the_baselines_match_with_the_configs_epsilon(self, method):
        protocol = ProtocolSpec(method=method, config=DIMatchingConfig(epsilon=3)).build()
        assert protocol.epsilon == 3.0

    def test_epsilon_is_spelled_once(self):
        assert [spec_field.name for spec_field in fields(ProtocolSpec)] == ["method", "config"]
        with pytest.raises(TypeError, match="epsilon"):
            ProtocolSpec(method="naive", epsilon=2)


class TestTransportSpec:
    def test_round_trips_through_network_config(self):
        original = NetworkConfig(
            bandwidth_bytes_per_s=5_000.0, latency_s=0.5, max_attempts=3
        )
        assert TransportSpec.from_network_config(original).network_config() == original

    def test_none_means_defaults(self):
        assert TransportSpec.from_network_config(None).network_config() == NetworkConfig()

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError, match="bandwidth"):
            TransportSpec(bandwidth_bytes_per_s=0)

    def test_invalid_attempts_rejected(self):
        with pytest.raises(ConfigurationError, match="max_attempts"):
            TransportSpec(max_attempts=0)


class TestExecutorSpec:
    def test_default_is_serial(self):
        assert ExecutorSpec().kind == "serial"

    @pytest.mark.parametrize("kind", ["gpu", "thread", "process", None])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ConfigurationError, match="executor kind"):
            ExecutorSpec(kind=kind)


class TestFaultSpec:
    def test_defaults_are_fault_free(self):
        spec = FaultSpec()
        assert (spec.profile, spec.net_seed, spec.allow_partial) == ("none", 0, False)

    def test_known_profiles_accepted(self):
        for profile in FAULT_PROFILE_CHOICES:
            assert FaultSpec(profile=profile).profile == profile

    @pytest.mark.parametrize("profile", ["meteor-strike", None])
    def test_unknown_profile_rejected(self, profile):
        with pytest.raises(ConfigurationError, match="fault profile"):
            FaultSpec(profile=profile)

    @pytest.mark.parametrize("net_seed", [True, "zero", None])
    def test_non_integer_net_seed_rejected(self, net_seed):
        with pytest.raises(ConfigurationError, match="net_seed"):
            FaultSpec(net_seed=net_seed)

    def test_non_bool_allow_partial_rejected(self):
        with pytest.raises(ConfigurationError, match="allow_partial"):
            FaultSpec(allow_partial=1)


class TestClusterSpec:
    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError, match="name"):
            ClusterSpec(name="")

    def test_wrong_subspec_type_rejected(self):
        with pytest.raises(ConfigurationError, match="protocol"):
            ClusterSpec(protocol="wbf")
        with pytest.raises(ConfigurationError, match="transport"):
            ClusterSpec(transport=NetworkConfig())
        with pytest.raises(ConfigurationError, match="dataset"):
            ClusterSpec(dataset={"stations": 3})

    def test_with_updates_revalidates(self):
        spec = ClusterSpec(name="ok")
        with pytest.raises(ConfigurationError, match="name"):
            spec.with_updates(name="")

    def test_from_workload_compiles_every_scenario(self):
        for scenario in ("steady-state", "degraded-network", "long-session"):
            workload = get_scenario(scenario)
            spec = ClusterSpec.from_workload(workload)
            assert spec.name == workload.name
            assert isinstance(spec.dataset, DatasetSpec)
            assert spec.dataset.station_count == workload.station_count
            assert spec.protocol.method == workload.method
            assert spec.faults.profile == workload.fault_profile
            assert spec.faults.allow_partial == workload.allow_partial

    def test_from_workload_derives_the_dataset_seed(self):
        from repro.utils.rng import derive_seed

        workload = get_scenario("steady-state")
        spec = ClusterSpec.from_workload(workload)
        assert spec.dataset.seed == derive_seed(
            workload.seed, "workload-dataset", workload.name
        )

    def test_from_workload_sets_deployment_knobs_on_the_specs_only(self):
        workload = get_scenario("degraded-network")
        spec = ClusterSpec.from_workload(workload)
        # The fault profile lands on FaultSpec alone; the protocol config is
        # exactly what the workload's filter means.
        assert spec.faults == FaultSpec(
            profile=workload.fault_profile, allow_partial=workload.allow_partial
        )
        assert spec.executor == ExecutorSpec()
        assert spec.protocol.config == DIMatchingConfig(epsilon=workload.epsilon)
