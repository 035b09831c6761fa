"""The open-system drive: arrival model, queueing semantics, determinism.

The tentpole contracts under test:

* every arrival draw is a pure function of ``(scenario.name, seed, phase
  label)``, so the same spec replays byte-identical transcripts and identical
  per-phase percentiles across executors;
* saturation is *graceful*: when service time exceeds the inter-arrival gap,
  queueing delay accrues into ``latency_s`` instead of erroring, and latency
  grows monotonically with offered load.
"""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.workloads import OfferedLoad, RampPhase, WorkloadSpec, run_workload

from .conftest import tiny_spec

#: Tiny cluster service time is ~0.08 virtual seconds → capacity ~12 qps.
TINY_CAPACITY_QPS = 12.0


def _open_spec(name: str = "open-ramp", **offered_overrides: object) -> WorkloadSpec:
    spec = tiny_spec(name)
    if offered_overrides:
        from dataclasses import replace

        spec = spec.with_updates(offered=replace(spec.offered, **offered_overrides))
    return spec


def _run(spec: WorkloadSpec, **kwargs: object):
    return run_workload(spec, drive="open", **kwargs)


class TestOfferedLoadValidation:
    def test_ramp_phase_rejects_bad_fields(self):
        with pytest.raises(ConfigurationError, match="label"):
            RampPhase("", 1.0)
        with pytest.raises(ConfigurationError, match="duration_s"):
            RampPhase("p", 0.0)
        with pytest.raises(ConfigurationError, match="duration_s"):
            RampPhase("p", float("inf"))
        with pytest.raises(ConfigurationError, match="rate_multiplier"):
            RampPhase("p", 1.0, -0.5)
        assert RampPhase("p", 1.0, 0.0).rate_multiplier == 0.0  # silence is legal

    def test_offered_load_rejects_bad_fields(self):
        with pytest.raises(ConfigurationError, match="rate_qps"):
            OfferedLoad(rate_qps=0.0)
        with pytest.raises(ConfigurationError, match="process"):
            OfferedLoad(rate_qps=1.0, process="uniform")
        with pytest.raises(ConfigurationError, match="ramp"):
            OfferedLoad(rate_qps=1.0, ramp=())
        with pytest.raises(ConfigurationError, match="unique"):
            OfferedLoad(rate_qps=1.0, ramp=(RampPhase("p", 1.0), RampPhase("p", 2.0)))
        with pytest.raises(ConfigurationError, match="max_arrivals"):
            OfferedLoad(rate_qps=1.0, max_arrivals=0)

    def test_rate_during_and_total_duration(self):
        load = OfferedLoad(
            rate_qps=4.0,
            ramp=(RampPhase("a", 2.0, 0.5), RampPhase("b", 3.0, 2.0)),
        )
        assert load.rate_during(load.ramp[0]) == 2.0
        assert load.rate_during(load.ramp[1]) == 8.0
        assert load.total_duration_s == 5.0

    def test_spec_rejects_non_offered_values(self):
        with pytest.raises(ConfigurationError, match="offered"):
            WorkloadSpec(name="x", offered="fast")  # type: ignore[arg-type]


class TestOpenDriveSemantics:
    def test_open_drive_requires_an_offered_load(self):
        with pytest.raises(ValueError, match="offered"):
            run_workload(tiny_spec("steady-state"), drive="open")

    def test_round_count_follows_the_schedule_not_spec_rounds(self):
        result = _run(_open_spec("open-steady"))
        assert result.drive == "open"
        # rounds=3 at tiny scale; the 12s plateau at 4 qps admits far more.
        assert result.round_count > tiny_spec("open-steady").rounds
        assert result.round_count <= _open_spec("open-steady").offered.max_arrivals

    def test_max_arrivals_caps_the_whole_run(self):
        result = _run(_open_spec("open-steady", max_arrivals=5))
        assert result.round_count == 5

    def test_phase_windows_cover_the_ramp_in_order(self):
        result = _run(_open_spec("open-ramp"))
        labels = [window.label for window in result.phases]
        assert labels == ["warm-up", "plateau", "spike", "drain"]
        drain = result.phases[-1]
        assert drain.arrival_count == 0  # multiplier 0: a silence window
        assert drain.latency is None
        assert {metrics.phase for metrics in result.rounds} == {
            "warm-up", "plateau", "spike",
        }
        # Arrival times are strictly increasing across phase boundaries.
        arrivals = [metrics.arrival_s for metrics in result.rounds]
        assert arrivals == sorted(arrivals)
        assert all(later > earlier for earlier, later in zip(arrivals, arrivals[1:]))

    def test_latency_is_queue_delay_plus_service(self):
        result = _run(_open_spec())
        for metrics in result.rounds:
            assert metrics.queue_delay_s >= 0.0
            service = metrics.latency_s - metrics.queue_delay_s
            assert service > 0.0

    def test_scheduled_process_spaces_arrivals_exactly(self):
        spec = _open_spec(
            "open-steady",
            process="scheduled",
            ramp=(RampPhase("plateau", 3.0, 1.0),),
        )
        result = _run(spec)
        gap = 1.0 / spec.offered.rate_qps
        arrivals = [metrics.arrival_s for metrics in result.rounds]
        for index, arrival in enumerate(arrivals):
            assert arrival == pytest.approx((index + 1) * gap)

    def test_saturation_degrades_gracefully_and_monotonically(self):
        # Sweep scheduled rates across the tiny cluster's capacity: below it
        # queueing stays ~0 and p99 is flat; past it latency grows with the
        # rate — and nothing raises.
        p99s, queue_maxima = [], []
        for multiplier in (0.5, 1.5, 3.0):
            spec = _open_spec(
                "open-saturation",
                rate_qps=multiplier * TINY_CAPACITY_QPS,
                ramp=(RampPhase("plateau", 2.5, 1.0),),
                max_arrivals=30,
            )
            result = _run(spec)
            p99s.append(result.cumulative["latency_s"].p99)
            queue_maxima.append(max(m.queue_delay_s for m in result.rounds))
        assert queue_maxima[0] == 0.0  # below capacity: no queueing at all
        assert queue_maxima[1] > 0.0
        assert p99s[0] < p99s[1] < p99s[2]
        # Well past saturation the queue dominates service entirely.
        assert p99s[2] > 3.0 * p99s[0]

    def test_overload_caps_achieved_qps_at_capacity(self):
        spec = _open_spec(
            "open-saturation",
            rate_qps=2.0 * TINY_CAPACITY_QPS,
            ramp=(RampPhase("plateau", 2.0, 1.0),),
            max_arrivals=40,
        )
        (window,) = _run(spec).phases
        assert window.offered_qps == spec.offered.rate_qps
        assert window.achieved_qps < 0.75 * window.offered_qps
        # ... but the admitted arrivals all completed: graceful, not lossy.
        assert window.arrival_count == len(_run(spec).rounds)


def _determinism_spec(scenario: str, **extra: object) -> WorkloadSpec:
    # The determinism matrix replays every scenario many times; capping the
    # admitted arrivals keeps the whole class inside tier-1 budgets without
    # weakening the byte-identity claim (same cap on both sides).
    spec = tiny_spec(scenario, **extra)
    from dataclasses import replace

    return spec.with_updates(offered=replace(spec.offered, max_arrivals=12))


@pytest.mark.parametrize("scenario", ["open-steady", "open-ramp", "open-saturation"])
class TestOpenLoopDeterminism:
    def test_two_runs_are_byte_identical(self, scenario):
        first = _run(_determinism_spec(scenario))
        second = _run(_determinism_spec(scenario))
        assert first.transcript_bytes() == second.transcript_bytes()
        assert first.to_payload() == second.to_payload()
        assert first.phases == second.phases

    def test_executors_share_transcripts_and_phase_percentiles(self, scenario):
        serial = _run(_determinism_spec(scenario), executor="serial")
        for executor in ("thread", "process"):
            other = _run(_determinism_spec(scenario), executor=executor)
            assert other.transcript_bytes() == serial.transcript_bytes()
            assert other.phases == serial.phases
            for left, right in zip(serial.rounds, other.rounds):
                assert left.latency_s == right.latency_s
                assert left.queue_delay_s == right.queue_delay_s
                assert left.arrival_s == right.arrival_s

    def test_seed_changes_the_arrival_schedule(self, scenario):
        baseline = _run(_determinism_spec(scenario))
        reseeded = _run(_determinism_spec(scenario, seed=tiny_spec(scenario).seed + 1))
        assert baseline.transcript_bytes() != reseeded.transcript_bytes()
