"""Engine semantics: arrivals, churn, skew, faults and the drive modes."""

import pytest

from repro.evaluation.benchjson import (
    read_bench_json,
    workload_payload,
    write_bench_json,
)
from repro.utils.rng import make_rng
from repro.workloads import ChurnProcess, WorkloadSpec, run_workload
from repro.workloads.engine import _ChurnState

from .conftest import run_tiny, tiny_spec


class TestSimulationDrive:
    def test_round_structure_follows_the_spec(self, steady_result):
        spec = tiny_spec("steady-state")
        assert steady_result.round_count == spec.rounds
        assert steady_result.scenario == spec.name
        for index, metrics in enumerate(steady_result.rounds):
            assert metrics.round_index == index
            assert metrics.query_count == spec.arrival.count_at(index)
            assert metrics.total_bytes > 0
            assert 0.0 <= metrics.precision <= 1.0
            assert 0.0 <= metrics.recall <= 1.0

    def test_flash_crowd_rounds_carry_more_queries_and_bytes(self):
        result = run_workload(tiny_spec("flash-crowd").with_updates(rounds=4))
        burst = result.rounds[3]
        quiet = result.rounds[2]
        assert burst.query_count > quiet.query_count
        assert burst.downlink_bytes > quiet.downlink_bytes

    def test_churn_heavy_actually_churns(self):
        result = run_workload(tiny_spec("churn-heavy").with_updates(rounds=6))
        churn_events = sum(len(m.joined) + len(m.left) for m in result.rounds)
        assert churn_events > 0
        # Round 0 anchors the scenario at full deployment.
        assert result.rounds[0].joined == ()
        assert result.rounds[0].left == ()
        for metrics in result.rounds:
            assert metrics.active_station_count >= 1

    def test_degraded_network_pays_reliability_costs(self):
        result = run_tiny("degraded-network")
        assert sum(m.retransmit_count for m in result.rounds) > 0
        assert min(m.goodput_fraction for m in result.rounds) < 1.0
        # Chaos changes costs, never what a surviving round computes.
        clean = run_workload(tiny_spec("degraded-network").with_updates(fault_profile="none"))
        assert [m.precision for m in clean.rounds] == [m.precision for m in result.rounds]

    def test_skewed_hotset_concentrates_the_query_mix(self):
        skewed = tiny_spec("skewed-hotset").with_updates(rounds=6)
        uniform = skewed.with_updates(mix=skewed.mix.__class__(zipf_s=0.0))
        from repro.cluster.spec import ClusterSpec
        from repro.datagen.workload import build_dataset
        from repro.workloads.engine import _EagerProvider

        dataset = build_dataset(ClusterSpec.from_workload(skewed).dataset)
        skewed_users = [
            q.query_id.rsplit("-", 1)[-1]
            for r in range(20)
            for q in _EagerProvider(skewed, dataset).sample(r, 5)
        ]
        uniform_users = [
            q.query_id.rsplit("-", 1)[-1]
            for r in range(20)
            for q in _EagerProvider(uniform, dataset).sample(r, 5)
        ]
        def top_share(draws):
            counts = sorted(
                (draws.count(user) for user in set(draws)), reverse=True
            )
            return counts[0] / len(draws)

        assert top_share(skewed_users) > top_share(uniform_users)

    def test_unknown_drive_rejected(self):
        with pytest.raises(ValueError, match="drive"):
            run_workload(tiny_spec("steady-state"), drive="teleport")

    def test_unknown_mix_category_rejected(self):
        spec = tiny_spec("steady-state")
        spec = spec.with_updates(mix=spec.mix.__class__(categories=("astronauts",)))
        with pytest.raises(ValueError, match="unknown categories"):
            run_workload(spec)


class TestSessionDrive:
    def test_long_session_ships_fewer_bytes_than_full_rounds(self):
        spec = tiny_spec("long-session").with_updates(rounds=4)
        session = run_workload(spec, drive="session")
        simulation = run_workload(spec, drive="simulation")
        assert session.total_bytes < simulation.total_bytes

    def test_batch_rotation_recharges_downlink(self):
        spec = tiny_spec("long-session").with_updates(rounds=4)
        result = run_workload(spec, drive="session")
        # Round 0 disseminates; a quiet round ships downlink only to joiners
        # (who must receive the current artifact before they can match).
        assert result.rounds[0].downlink_bytes > 0
        for metrics in result.rounds:
            if not metrics.batch_refreshed and not metrics.joined:
                assert metrics.downlink_bytes == 0
            if metrics.joined and not metrics.batch_refreshed:
                assert metrics.downlink_bytes > 0

    def test_session_results_come_from_delivered_reports(self):
        # With a single-attempt budget under loss, some deltas never deliver:
        # the station stays dirty and the center keeps serving its previous
        # state, which must show up in the round's retrieval quality, not
        # only in goodput.
        from repro.distributed.network import NetworkConfig

        spec = tiny_spec("steady-state").with_updates(
            fault_profile="lossy", allow_partial=True, seed=1
        )
        result = run_workload(
            spec, drive="session", network_config=NetworkConfig(max_attempts=1)
        )
        starved = [m for m in result.rounds if m.lost_station_count > 0]
        assert starved, "expected at least one undelivered delta under loss"
        assert min(m.recall for m in starved) < 1.0

    def test_session_drive_honors_the_spec_fault_pairing(self):
        # A strict spec (allow_partial=False) must fail loudly when a delta
        # cannot be delivered, exactly like the simulation drive.
        from repro.distributed.events import RoundTimeoutError
        from repro.distributed.network import NetworkConfig

        spec = tiny_spec("steady-state").with_updates(
            fault_profile="lossy", allow_partial=False, seed=1
        )
        with pytest.raises(RoundTimeoutError):
            run_workload(
                spec, drive="session", network_config=NetworkConfig(max_attempts=1)
            )

    def test_session_runs_record_the_serial_executor(self):
        result = run_tiny("steady-state", drive="session")
        assert result.to_payload()["executor"] == "serial"

    def test_session_drive_survives_chaos(self):
        result = run_tiny("degraded-network", drive="session")
        assert result.round_count == tiny_spec("degraded-network").rounds


class TestBenchJsonEmission:
    def test_workload_payload_round_trips(self, steady_result, tmp_path):
        payload = workload_payload(steady_result)
        path = write_bench_json(tmp_path, "workload_steady_state", payload)
        document = read_bench_json(path)
        assert document["benchmark"] == "workload_steady_state"
        assert document["payload"]["round_count"] == steady_result.round_count
        assert document["payload"]["totals"]["bytes"] == steady_result.total_bytes
        # The wall-clock compute fields never reach the persisted payload.
        assert all("compute_time_s" not in row for row in document["payload"]["rounds"])

    def test_workload_payload_rejects_non_results(self):
        class Impostor:
            def to_payload(self):
                return {"scenario": "x"}

        with pytest.raises(ValueError, match="missing required key"):
            workload_payload(Impostor())


def _reference_churn(spec, station_ids, rounds):
    """The membership schedule as the list-scanning engine computed it.

    Yields ``(joined, left, active, revived)`` per round.  The schedule part
    is the engine's original ``_ChurnState.step``, which rebuilt ``set(left)``
    per active station and ``set(survivors)`` per revival; ``revived`` only
    counts how often the ``min_active`` floor brought a leaver back.
    """
    all_ids = sorted(str(station_id) for station_id in station_ids)
    active = list(all_ids)
    churn = spec.churn
    for round_index in range(rounds):
        if round_index == 0 or churn.is_static and churn.join_probability == 1.0:
            yield (), (), tuple(active), 0
            continue
        rng = make_rng(spec.seed, "workload-churn", spec.name, round_index)
        joined, left = [], []
        current = set(active)
        for station_id in all_ids:
            draw = float(rng.random())
            if station_id in current:
                if draw < churn.leave_probability:
                    left.append(station_id)
            elif draw < churn.join_probability:
                joined.append(station_id)
        survivors = [s for s in active if s not in set(left)]
        revived_count = 0
        while len(survivors) + len(joined) < churn.min_active and left:
            revived = left.pop(0)
            survivors = [s for s in all_ids if s in set(survivors) | {revived}]
            revived_count += 1
        active = sorted(set(survivors) | set(joined))
        yield tuple(joined), tuple(left), tuple(active), revived_count


class TestChurnState:
    @pytest.mark.parametrize("station_count", [1, 7, 40])
    @pytest.mark.parametrize(
        "leave, join", [(0.3, 0.5), (0.7, 0.1)], ids=["heavy", "draining"]
    )
    def test_step_matches_the_list_scanning_reference(self, station_count, leave, join):
        station_ids = [f"station-{index}" for index in reversed(range(station_count))]
        floors = sorted({1, max(1, station_count // 2), max(1, station_count - 1),
                         station_count})
        revivals = 0
        for seed in (0, 3, 11):
            for min_active in floors:
                spec = WorkloadSpec(
                    name="churn-grid",
                    seed=seed,
                    station_count=station_count,
                    churn=ChurnProcess(
                        leave_probability=leave,
                        join_probability=join,
                        min_active=min_active,
                    ),
                )
                state = _ChurnState(spec, station_ids)
                for round_index, (joined, left, active, revived) in enumerate(
                    _reference_churn(spec, station_ids, rounds=12)
                ):
                    assert state.step(round_index) == (joined, left)
                    assert state.active == active
                    assert len(active) >= min(min_active, station_count)
                    revivals += revived
        # A floor at (or near) the station count must bring leavers back.
        assert revivals > 0
