"""Open-loop saturation sweep: max sustainable QPS and graceful degradation.

Calibrates the cluster's virtual service time from a low-rate open-system run,
then sweeps scheduled (jitter-free) offered loads across multiples of the
implied capacity and records the latency/queue percentiles of every point.
The committed ``BENCH_open_loop.json`` baseline pins two headline claims for
the perf-trajectory gate (``repro.evaluation.trajectory``):

* ``max_sustainable_qps`` — the highest swept rate the cluster absorbs with
  negligible queueing, reported per executor (and asserted identical across
  them: the virtual clock is executor-invariant);
* ``below_saturation_p99_s`` — the flat part of the latency curve; growth
  here means service itself got slower, not just that we offered more load.

Everything recorded is a deterministic function of the spec seed — the sweep
replays bit-identically on every machine and executor.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_open_loop.py
"""

import pytest
from conftest import write_json_result, write_report

from repro.utils.asciiplot import render_table
from repro.workloads import OfferedLoad, RampPhase, WorkloadSpec, run_workload

#: Offered-load multiples of the calibrated capacity the sweep visits.
SWEEP_MULTIPLIERS = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)
#: Sweep points at or below this multiplier must stay queueing-free.
SUSTAINABLE_BELOW = 0.75
#: Arrivals per sweep point (enough for stable p99 at nearest-rank).
ARRIVALS_PER_POINT = 32
#: Executors the probe point is replayed under to pin invariance.
EXECUTORS = ("serial", "thread", "process")


def _sweep_spec(offered: OfferedLoad) -> WorkloadSpec:
    """The (small, fast) cluster every sweep point drives."""
    return WorkloadSpec(
        name="open-loop-sweep",
        description="saturation sweep harness",
        users_per_category=3,
        station_count=3,
        offered=offered,
        seed=1211,
    )


def _point_load(rate_qps: float) -> OfferedLoad:
    """A single scheduled plateau admitting exactly ARRIVALS_PER_POINT batches."""
    duration = (ARRIVALS_PER_POINT + 1) / rate_qps
    return OfferedLoad(
        rate_qps=rate_qps,
        process="scheduled",
        ramp=(RampPhase("plateau", duration, 1.0),),
        max_arrivals=ARRIVALS_PER_POINT,
    )


@pytest.fixture(scope="session")
def calibration():
    """Service time / capacity measured from a queueing-free low-rate run."""
    result = run_workload(_sweep_spec(_point_load(1.0)), drive="open")
    services = [m.latency_s - m.queue_delay_s for m in result.rounds]
    mean_service = sum(services) / len(services)
    assert result.cumulative["latency_s"].maximum < 1.0  # sanity: no queueing at 1 qps
    return {"service_time_s": mean_service, "capacity_qps": 1.0 / mean_service}


@pytest.fixture(scope="session")
def sweep(calibration):
    """One open run per multiplier, serial executor."""
    points = []
    for multiplier in SWEEP_MULTIPLIERS:
        rate = multiplier * calibration["capacity_qps"]
        result = run_workload(_sweep_spec(_point_load(rate)), drive="open")
        (window,) = result.phases
        latency = result.cumulative["latency_s"]
        queue = window.queue_delay
        points.append(
            {
                "multiplier": multiplier,
                "offered_qps": rate,
                "achieved_qps": window.achieved_qps,
                "arrivals": window.arrival_count,
                "latency_p50_s": latency.p50,
                "latency_p99_s": latency.p99,
                "queue_p99_s": queue.p99,
                "queue_max_s": queue.maximum,
                "transcript": result.transcript_bytes(),
            }
        )
    return points


def test_open_loop_drive_throughput(benchmark, calibration):
    """Timing unit: one saturated sweep point end to end."""
    rate = 1.25 * calibration["capacity_qps"]
    result = benchmark.pedantic(
        lambda: run_workload(_sweep_spec(_point_load(rate)), drive="open"),
        rounds=1,
        iterations=1,
    )
    assert result.round_count == ARRIVALS_PER_POINT


def test_graceful_saturation_trajectory(calibration, sweep):
    """Pin the saturation shape and persist the committed baseline payload."""
    service = calibration["service_time_s"]
    # p99 grows monotonically with offered load (small slack for the service
    # jitter between equal-rate batches) ...
    p99s = [point["latency_p99_s"] for point in sweep]
    for below, above in zip(p99s, p99s[1:]):
        assert above >= below - 0.1 * service
    # ... is flat below saturation (queueing-free: latency is pure service) ...
    below_saturation = [
        point for point in sweep if point["multiplier"] <= SUSTAINABLE_BELOW
    ]
    assert below_saturation
    for point in below_saturation:
        assert point["queue_p99_s"] <= 0.1 * service
    # ... and degrades gracefully past it: queueing dominates, nothing errors.
    saturated = sweep[-1]
    assert saturated["queue_max_s"] > service
    assert saturated["latency_p99_s"] > 2.0 * below_saturation[-1]["latency_p99_s"]
    assert saturated["achieved_qps"] < saturated["offered_qps"]

    sustainable = [
        point["offered_qps"]
        for point in sweep
        if point["queue_p99_s"] <= 0.1 * service
    ]
    assert sustainable, "no swept rate was sustainable — calibration is off"
    max_sustainable = max(sustainable)

    # The virtual clock is executor-invariant: replay the saturated point
    # under every executor and require byte-identical transcripts, then
    # report the (identical) per-executor capacity the gate tracks.
    probe_rate = saturated["offered_qps"]
    transcripts = {}
    for executor in EXECUTORS:
        result = run_workload(
            _sweep_spec(_point_load(probe_rate)), drive="open", executor=executor
        )
        transcripts[executor] = result.transcript_bytes()
    assert transcripts["thread"] == transcripts["serial"]
    assert transcripts["process"] == transcripts["serial"]
    assert transcripts["serial"] == saturated["transcript"]

    payload = {
        "scenario": "open-loop-sweep",
        "seed": 1211,
        "service_time_s": service,
        "capacity_qps": calibration["capacity_qps"],
        "max_sustainable_qps": {executor: max_sustainable for executor in EXECUTORS},
        "below_saturation_p99_s": below_saturation[-1]["latency_p99_s"],
        "sweep": [
            {key: value for key, value in point.items() if key != "transcript"}
            for point in sweep
        ],
    }
    write_json_result("open_loop", payload)

    rows = [
        [
            f"{point['multiplier']:g}",
            round(point["offered_qps"], 2),
            round(point["achieved_qps"], 2),
            round(point["latency_p50_s"], 4),
            round(point["latency_p99_s"], 4),
            round(point["queue_max_s"], 4),
        ]
        for point in sweep
    ]
    report = render_table(
        ["x capacity", "offered qps", "achieved qps", "p50 s", "p99 s", "queue max s"],
        rows,
    )
    write_report(
        "open_loop_sweep",
        f"service {service:.4f}s, capacity {calibration['capacity_qps']:.2f} qps, "
        f"max sustainable {max_sustainable:.2f} qps\n{report}",
    )
