"""Million-user streaming soak: bounded residency under open-loop arrivals.

Runs the ``open-soak-1m`` catalog scenario at its declared size — a million
users across 10k stations, streamed through a :class:`StationSource` with a
48-batch LRU residency cap — and persists ``BENCH_soak_1m.json``.  The
committed baseline pins the headline claims for the perf-trajectory gate
(``repro.evaluation.trajectory``):

* ``source.peak_resident`` — the memory bound under test: the high-water mark
  of resident station batches must never exceed the declared cap, however
  large the census grows;
* ``source.evictions`` — the LRU actually cycles (a zero here would mean the
  soak stopped exercising the cap);
* ``source.declared_users`` — the census the run claims to cover; shrinkage
  means the soak quietly stopped being a million-user soak.

Everything recorded is a deterministic function of the scenario seed: a
rerun replays byte-identically, which this module asserts directly before
writing the payload.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_soak_1m.py
"""

import pytest
from conftest import write_json_result, write_report

from repro.evaluation.benchjson import workload_payload
from repro.utils.asciiplot import render_table
from repro.workloads import get_scenario, run_workload


@pytest.fixture(scope="session")
def soak_spec():
    """The catalog scenario, at its full declared (million-user) size."""
    return get_scenario("open-soak-1m")


@pytest.fixture(scope="session")
def soak_result(soak_spec):
    """One reference run shared by the assertions and the payload."""
    return run_workload(soak_spec, drive="open")


def test_soak_drive_throughput(benchmark, soak_spec):
    """Timing unit: the full open-loop soak end to end."""
    result = benchmark.pedantic(
        lambda: run_workload(soak_spec, drive="open"), rounds=1, iterations=1
    )
    assert result.round_count == soak_spec.offered.max_arrivals


def test_million_user_soak_trajectory(soak_spec, soak_result):
    """Pin the bounded-residency claims and persist the committed baseline."""
    source = soak_result.source_stats
    assert source is not None, "a streaming run must report source stats"
    spec_source = soak_spec.source

    # The headline claim: a million declared users, never more than the cap
    # resident at once, with the LRU actually cycling batches through.
    assert source["declared_users"] == 1_000_000
    assert source["peak_resident"] <= spec_source.max_resident
    assert source["evictions"] > 0
    assert source["built"] > spec_source.max_resident

    # Round cost scales with the touch window, not the declared city.
    assert spec_source.stations_per_round is not None
    for metrics in soak_result.rounds:
        assert metrics.active_station_count <= spec_source.stations_per_round

    # The virtual clock, the source's derivations and the LRU schedule are
    # all seed-determined: a rerun must replay the same bytes and the same
    # residency accounting.
    rerun = run_workload(soak_spec, drive="open")
    assert rerun.transcript_bytes() == soak_result.transcript_bytes()
    assert rerun.source_stats == source

    write_json_result("soak_1m", workload_payload(soak_result))

    latency = soak_result.cumulative["latency_s"]
    rows = [
        ["declared users", source["declared_users"]],
        ["stations", source["station_count"]],
        ["residency cap", source["max_resident"]],
        ["peak resident", source["peak_resident"]],
        ["batches built", source["built"]],
        ["evictions", source["evictions"]],
        ["arrivals served", soak_result.round_count],
        ["total bytes", soak_result.total_bytes],
        ["latency p99 s", round(latency.p99, 4)],
    ]
    write_report("soak_1m", render_table(["quantity", "value"], rows))
