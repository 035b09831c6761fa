"""The named scenario catalog.

Each entry is a complete :class:`~repro.workloads.spec.WorkloadSpec` with a
fixed default seed: ``run_workload(get_scenario(name))`` replays a
byte-identical event transcript on every machine, and
``get_scenario(name).with_updates(seed=..., station_count=..., rounds=...)``
scales the same scenario shape up or down without touching its definition.
The catalog is the shared vocabulary of the CLI (``repro workload run|list``),
the scenario-smoke CI jobs and the replay test suite — registering a scenario
here automatically enrolls it in all three.
"""

from __future__ import annotations

from repro.datagen.source import SourceSpec
from repro.topology.spec import TopologySpec
from repro.workloads.spec import (
    ArrivalProcess,
    ChurnProcess,
    OfferedLoad,
    QueryMix,
    RampPhase,
    TenantSpec,
    WorkloadSpec,
)

#: The registry, keyed by scenario name in presentation order.
SCENARIOS: dict[str, WorkloadSpec] = {}


def register_scenario(spec: WorkloadSpec) -> WorkloadSpec:
    """Add a scenario to the catalog (its name must be unused)."""
    if spec.name in SCENARIOS:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    SCENARIOS[spec.name] = spec
    return spec


def scenario_names() -> tuple[str, ...]:
    """All registered scenario names, in registration order."""
    return tuple(SCENARIOS)


def get_scenario(name: str) -> WorkloadSpec:
    """Look up a registered scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; expected one of {sorted(SCENARIOS)}"
        ) from None


register_scenario(
    WorkloadSpec(
        name="steady-state",
        description="Constant arrivals, full deployment, clean network — the baseline trajectory every other scenario is read against.",
        rounds=10,
        arrival=ArrivalProcess(kind="constant", base=4),
        seed=1201,
    )
)

register_scenario(
    WorkloadSpec(
        name="flash-crowd",
        description="Quiet rounds punctuated by 4x query bursts every 4th round (a campaign launch hitting the center).",
        rounds=12,
        arrival=ArrivalProcess(kind="flash", base=3, burst_multiplier=4.0, burst_every=4),
        seed=1202,
    )
)

register_scenario(
    WorkloadSpec(
        name="diurnal",
        description="Sinusoidal day/night arrival cycle between 2 and 8 queries per round over a 8-round period.",
        rounds=16,
        arrival=ArrivalProcess(kind="diurnal", base=2, peak=8, period=8),
        seed=1203,
    )
)

register_scenario(
    WorkloadSpec(
        name="churn-heavy",
        description="Stations leave with p=0.3 and rejoin with p=0.5 every round; the round only ever covers the cells that are up.",
        rounds=12,
        station_count=6,
        arrival=ArrivalProcess(kind="constant", base=4),
        churn=ChurnProcess(leave_probability=0.3, join_probability=0.5, min_active=2),
        seed=1204,
    )
)

register_scenario(
    WorkloadSpec(
        name="skewed-hotset",
        description="Zipf(s=1.5) query mix over a seeded hot set: a few subscriber profiles dominate every round's batch.",
        rounds=10,
        arrival=ArrivalProcess(kind="constant", base=5),
        mix=QueryMix(zipf_s=1.5),
        seed=1205,
    )
)

register_scenario(
    WorkloadSpec(
        name="degraded-network",
        description="The chaos fault profile (loss, duplication, corruption, reordering, stragglers) with partial rounds allowed.",
        rounds=10,
        arrival=ArrivalProcess(kind="constant", base=3),
        fault_profile="chaos",
        allow_partial=True,
        seed=1206,
    )
)

register_scenario(
    WorkloadSpec(
        name="long-session",
        description="A single long-running campaign: the batch rotates only every 6th round, the regime where the session drive ships tiny deltas.",
        rounds=12,
        arrival=ArrivalProcess(kind="constant", base=4, refresh_every=6),
        churn=ChurnProcess(leave_probability=0.15, join_probability=0.6, min_active=2),
        seed=1207,
    )
)

# -- open-system (rate-driven) scenarios ------------------------------------
#
# The catalog-scale cluster serves a full wire round in ~0.12 virtual seconds,
# so its saturation point sits near 8 QPS.  The three scenarios below bracket
# it: comfortably under, ramped across, and pinned above.  Under closed-loop
# drives they fall back to their (modest) ``rounds`` schedule, so they still
# participate in the replay suite and benchmark sweep like every other entry.

register_scenario(
    WorkloadSpec(
        name="open-steady",
        description="Open-system plateau at half the cluster's service capacity: queueing delay stays near zero and p99 tracks the bare service time.",
        rounds=6,
        arrival=ArrivalProcess(kind="constant", base=4),
        offered=OfferedLoad(
            rate_qps=4.0,
            process="poisson",
            ramp=(RampPhase("plateau", 12.0, 1.0),),
            max_arrivals=64,
        ),
        seed=1208,
    )
)

register_scenario(
    WorkloadSpec(
        name="open-ramp",
        description="Warm-up, plateau, 2.5x spike past saturation, then a silent drain: the spike window accrues queueing delay, the drain lets the backlog clear.",
        rounds=6,
        arrival=ArrivalProcess(kind="constant", base=4),
        offered=OfferedLoad(
            rate_qps=4.0,
            process="poisson",
            ramp=(
                RampPhase("warm-up", 4.0, 0.5),
                RampPhase("plateau", 8.0, 1.0),
                RampPhase("spike", 4.0, 2.5),
                RampPhase("drain", 4.0, 0.0),
            ),
            max_arrivals=96,
        ),
        seed=1209,
    )
)

register_scenario(
    WorkloadSpec(
        name="open-saturation",
        description="Scheduled (jitter-free) arrivals at ~1.5x service capacity: every excess arrival queues behind the last, so latency climbs linearly — the graceful-saturation signature.",
        rounds=6,
        arrival=ArrivalProcess(kind="constant", base=4),
        offered=OfferedLoad(
            rate_qps=12.0,
            process="scheduled",
            ramp=(RampPhase("plateau", 6.0, 1.0),),
            max_arrivals=80,
        ),
        seed=1210,
    )
)

# seed 1211 belongs to benchmarks/bench_open_loop.py's pinned sweep.
register_scenario(
    WorkloadSpec(
        name="open-soak-1m",
        description="Million-user streaming soak: 10k stations x 100 users declared through a StationSource, a 48-batch LRU residency cap and 12-station round windows — open-loop arrivals touch the city incrementally, so memory is bounded by the cap, never the census.",
        rounds=6,
        arrival=ArrivalProcess(kind="constant", base=3, refresh_every=2),
        offered=OfferedLoad(
            rate_qps=2.0,
            process="scheduled",
            ramp=(RampPhase("plateau", 16.0, 1.0),),
            max_arrivals=24,
        ),
        source=SourceSpec(
            kind="streaming",
            station_count=10_000,
            users_per_station=100,
            max_resident=48,
            stations_per_round=12,
        ),
        seed=1212,
    )
)

# -- hierarchical (two-tier) scenarios ---------------------------------------
#
# The two-tier catalog entries keep ``regions=2`` so the CI smoke's 3-station
# tiny scale still partitions cleanly; at catalog scale the balanced slicing
# puts 3 stations behind one aggregator and 2 behind the other.

register_scenario(
    WorkloadSpec(
        name="hier-steady",
        description="The steady-state shape routed through a two-tier topology: two regional aggregators dedupe and re-encode their stations' reports, so the trunk carries one summary per region while rankings stay identical to the flat star.",
        rounds=10,
        arrival=ArrivalProcess(kind="constant", base=4),
        topology=TopologySpec(kind="two-tier", regions=2),
        seed=1213,
    )
)

register_scenario(
    WorkloadSpec(
        name="hier-degraded-region",
        description="A two-tier deployment where one region's last-mile hop runs the lossy fault profile while the other region and the trunk stay clean — regional faults stay contained behind their aggregator instead of degrading the whole star.",
        rounds=10,
        arrival=ArrivalProcess(kind="constant", base=3),
        topology=TopologySpec(
            kind="two-tier",
            regions=2,
            degraded_regions=("region-1",),
            degraded_profile="lossy",
        ),
        allow_partial=True,
        seed=1214,
    )
)

register_scenario(
    WorkloadSpec(
        name="multi-tenant-skew",
        description="Two tenants multiplexed round-robin over one two-tier deployment: a Zipf-skewed 'hot' tenant and a uniform 'broad' tenant each run an independent seeded query stream, with per-tenant precision/latency/byte accounting that partitions the totals exactly.",
        rounds=8,
        arrival=ArrivalProcess(kind="constant", base=3),
        tenants=(
            TenantSpec("hot", QueryMix(zipf_s=1.5)),
            TenantSpec("broad", QueryMix()),
        ),
        topology=TopologySpec(kind="two-tier", regions=2),
        seed=1215,
    )
)
