"""Multi-tenant multiplexing: spec validation, accounting invariants, isolation.

The tenant contract is an exact partition: every round a tenant drives is
tagged with its name, and the per-tenant windows in ``WorkloadResult.tenants``
must sum back to the run's totals — bytes, queries and round counts alike.
Tenant streams are isolated by construction (each gets its own seeded RNG
stream derived from a tenant-qualified spec name), which the determinism and
skew assertions below observe from the outside.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.exceptions import ConfigurationError
from repro.topology import TopologySpec
from repro.workloads import (
    ChurnProcess,
    QueryMix,
    TenantSpec,
    WorkloadSpec,
    run_workload,
)
from repro.workloads.spec import OfferedLoad, RampPhase

from .conftest import run_tiny, tiny_spec

TENANTS = (
    TenantSpec("hot", QueryMix(zipf_s=1.5)),
    TenantSpec("broad", QueryMix()),
)


def _tenant_spec(**extra):
    return tiny_spec(
        "multi-tenant-skew",
        rounds=4,
        **extra,
    )


class TestSpecValidation:
    def test_tenant_names_must_be_non_empty(self):
        with pytest.raises(ConfigurationError, match="name"):
            TenantSpec("")

    def test_tenant_mix_must_be_a_query_mix(self):
        with pytest.raises(ConfigurationError, match="mix"):
            TenantSpec("hot", mix="zipf")

    def test_tenant_names_must_be_unique(self):
        with pytest.raises(ConfigurationError, match="unique"):
            WorkloadSpec(
                name="dup",
                tenants=(TenantSpec("a"), TenantSpec("a")),
            )

    def test_single_stream_workloads_need_no_tenant_declarations(self):
        spec = WorkloadSpec(name="plain")
        assert spec.tenants == ()

    def test_topology_regions_must_fit_the_deployment(self):
        with pytest.raises(ConfigurationError, match="must not exceed stations"):
            WorkloadSpec(
                name="overpartitioned",
                station_count=3,
                topology=TopologySpec(kind="two-tier", regions=5),
            )

    def test_tenants_require_the_materialized_dataset_path(self):
        from repro.datagen.source import SourceSpec

        with pytest.raises(ConfigurationError, match="materialized dataset"):
            WorkloadSpec(
                name="streamed-tenants",
                tenants=TENANTS,
                source=SourceSpec(kind="eager", station_count=3, users_per_station=4),
            )


class TestAccountingInvariants:
    @pytest.fixture(scope="class", params=["simulation", "session"])
    def result(self, request):
        return run_workload(_tenant_spec(), drive=request.param)

    def test_every_round_is_tagged_with_its_tenant(self, result):
        names = [metrics.tenant for metrics in result.rounds]
        assert set(names) == {"hot", "broad"}
        # Round-robin in declaration order: hot, broad, hot, broad, ...
        assert names == ["hot", "broad"] * (len(names) // 2)

    def test_tenant_windows_partition_the_totals_exactly(self, result):
        windows = {window.name: window for window in result.tenants}
        assert set(windows) == {"hot", "broad"}
        assert sum(w.round_count for w in windows.values()) == result.round_count
        assert sum(w.query_count for w in windows.values()) == result.total_queries
        assert sum(w.total_bytes for w in windows.values()) == result.total_bytes
        assert (
            sum(w.downlink_bytes + w.uplink_bytes for w in windows.values())
            == result.total_bytes
        )

    def test_tenant_windows_match_their_tagged_rounds(self, result):
        for window in result.tenants:
            rounds = [m for m in result.rounds if m.tenant == window.name]
            assert window.round_count == len(rounds)
            assert window.query_count == sum(m.query_count for m in rounds)
            assert window.downlink_bytes == sum(m.downlink_bytes for m in rounds)
            assert window.uplink_bytes == sum(m.uplink_bytes for m in rounds)

    def test_payload_carries_the_tenant_windows(self, result):
        payload = result.to_payload()
        assert [entry["name"] for entry in payload["tenants"]] == ["hot", "broad"]
        for entry in payload["tenants"]:
            assert entry["round_count"] > 0

    def test_single_stream_payloads_stay_tenant_free(self):
        result = run_tiny("steady-state")
        assert result.tenants == ()
        payload = result.to_payload()
        assert "tenants" not in payload
        assert all("tenant" not in entry for entry in payload["rounds"])


class TestIsolationAndDeterminism:
    def test_reruns_are_byte_identical(self):
        first = run_workload(_tenant_spec())
        second = run_workload(_tenant_spec())
        assert second.transcript_bytes() == first.transcript_bytes()
        assert second.to_payload() == first.to_payload()

    def test_the_top_level_mix_is_neither_validated_nor_sampled(self):
        """Tenants supply every stream, so ``spec.mix`` builds no provider.

        A top-level mix naming a category the city lacks must not fail the
        run, and the run must equal the one with the scenario's own mix.
        """
        base = run_workload(_tenant_spec())
        unused = run_workload(_tenant_spec(mix=QueryMix(categories=("astronauts",))))
        assert unused.transcript_bytes() == base.transcript_bytes()
        assert unused.to_payload() == base.to_payload()

    def test_tenant_streams_are_independent_of_each_other(self):
        """Swapping one tenant's mix must not disturb the other's queries."""
        base = run_workload(_tenant_spec())
        swapped = run_workload(
            _tenant_spec(
                tenants=(TenantSpec("hot", QueryMix(zipf_s=0.5)), TENANTS[1])
            )
        )
        broad_base = next(w for w in base.tenants if w.name == "broad")
        broad_swapped = next(w for w in swapped.tenants if w.name == "broad")
        assert broad_swapped.query_count == broad_base.query_count
        assert broad_swapped.downlink_bytes == broad_base.downlink_bytes

    def test_open_drive_rejects_tenants(self):
        spec = _tenant_spec(
            offered=OfferedLoad(
                rate_qps=2.0, ramp=(RampPhase("plateau", 4.0, 1.0),), max_arrivals=4
            )
        )
        with pytest.raises(ValueError, match="closed-loop"):
            run_workload(spec, drive="open")


class TestSingleTenant:
    def test_one_tenant_session_ships_nothing_between_refreshes(self):
        """A lone tenant's batch changes only on refresh, like a tenant-free run.

        Re-subscribing an unchanged batch every step would dirty every station
        and re-ship the artifact, so a quiet step must move zero bytes.
        """
        spec = tiny_spec("long-session", rounds=4, churn=ChurnProcess()).with_updates(
            tenants=(TenantSpec("only", QueryMix()),),
        )
        result = run_workload(spec, drive="session")
        assert result.rounds[0].total_bytes > 0
        for metrics in result.rounds[1:]:
            assert not metrics.batch_refreshed
            assert (metrics.downlink_bytes, metrics.uplink_bytes) == (0, 0)


#: sha256 over the transcript and the sorted JSON payload of a churned,
#: lossy two-tenant run, captured before the engine's per-mode drive loops
#: were folded into one.  The catalog's tenant scenario neither churns nor
#: drops frames, so only this pin sees a tenant slot's transport seed (the
#: running record index) and where churn is reported.
CHURNED_LOSSY_DIGESTS = {
    "simulation": "585615fe689042657ba5a510e9d353512128315756864ee9620c28487d23b083",
    "session": "22530640eab40fb145dac6c0ea0e0bbb17763bc9e3e4609857e2229c2aea3b4c",
}


@pytest.mark.parametrize("drive", ["simulation", "session"])
def test_churned_lossy_tenant_runs_replay_the_pinned_engine(drive):
    spec = tiny_spec(
        "multi-tenant-skew",
        rounds=4,
        churn=ChurnProcess(leave_probability=0.3, join_probability=0.5),
        fault_profile="lossy",
        allow_partial=True,
    )
    result = run_workload(spec, drive=drive)
    # Churn advances once per macro-round and is reported on its first slot.
    assert any(m.joined or m.left for m in result.rounds)
    assert all(not (m.joined or m.left) for m in result.rounds[1::2])
    assert sum(m.retransmit_count for m in result.rounds) > 0
    digest = hashlib.sha256(result.transcript_bytes())
    digest.update(json.dumps(result.to_payload(), sort_keys=True).encode("utf-8"))
    assert digest.hexdigest() == CHURNED_LOSSY_DIGESTS[drive]
