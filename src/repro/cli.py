"""Command-line interface for running the reproduction experiments.

Usage (after ``pip install -e .``)::

    python -m repro.cli compare --users-per-category 30 --queries 12
    python -m repro.cli table2 --days 2
    python -m repro.cli convergence --samples 1 2 5 12
    python -m repro.cli figure fig1a

Each sub-command builds the relevant synthetic workload, runs the experiment and
prints the same plain-text table/chart the benchmark harness records under
``benchmarks/results/``.  Every round any sub-command executes — ``compare``'s
method sweep and ``workload run``'s scenario drives alike — goes through the
``repro.cluster.Cluster`` facade engine (via ``run_comparison`` /
``run_workload``); the CLI only parses knobs and renders reports.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Sequence

from repro.core.config import (
    DIMatchingConfig,
    FAULT_PROFILE_CHOICES,
    TRANSPORT_CHOICES,
    WORKLOAD_DRIVE_CHOICES,
)
from repro.datagen.workload import DatasetSpec, build_dataset, build_query_workload
from repro.evaluation.experiments import (
    convergence_study,
    effectiveness_study,
    run_comparison,
)
from repro.evaluation.figures import (
    accumulated_category_series,
    category_mean_series,
    local_similarity_counts,
)
from repro.evaluation.reporting import (
    format_convergence_table,
    format_effectiveness_table,
)
from repro.core.exceptions import ConfigurationError
from repro.topology import TOPOLOGY_KINDS, TopologySpec
from repro.utils.asciiplot import render_cdf, render_line_chart, render_table
from repro.workloads import (
    OfferedLoad,
    RampPhase,
    TenantSpec,
    get_scenario,
    run_workload,
    scenario_names,
    SCENARIOS,
)


def _positive_int(text: str) -> int:
    """Argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """Argparse type for tolerances and noise levels that must be at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    """Argparse type for rates that must be > 0."""
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _parse_ramp(text: str) -> "tuple[RampPhase, ...]":
    """Parse ``label:duration[:multiplier],...`` into a ramp schedule."""
    phases = []
    for chunk in text.split(","):
        parts = chunk.strip().split(":")
        if len(parts) not in (2, 3) or not parts[0]:
            raise SystemExit(
                f"workload run: bad --ramp phase {chunk.strip()!r}; expected "
                "label:duration_s[:rate_multiplier]"
            )
        try:
            duration = float(parts[1])
            multiplier = float(parts[2]) if len(parts) == 3 else 1.0
            phases.append(RampPhase(parts[0], duration, multiplier))
        except (ValueError, ConfigurationError) as error:
            raise SystemExit(f"workload run: bad --ramp phase {chunk.strip()!r}: {error}")
    return tuple(phases)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction experiments for DI-matching (ICDCS 2012).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    compare = subparsers.add_parser(
        "compare", help="Compare naive / local / BF / WBF on a synthetic workload."
    )
    compare.add_argument("--users-per-category", type=_positive_int, default=30)
    compare.add_argument("--stations", type=_positive_int, default=6)
    compare.add_argument("--days", type=_positive_int, default=1)
    compare.add_argument("--intervals-per-day", type=_positive_int, default=24)
    compare.add_argument("--queries", type=_positive_int, default=12)
    compare.add_argument("--epsilon", type=_non_negative_int, default=0)
    compare.add_argument("--noise", type=_non_negative_int, default=0)
    compare.add_argument("--sample-count", type=_positive_int, default=12)
    compare.add_argument("--seed", type=int, default=7)
    compare.add_argument(
        "--methods", nargs="+", default=["naive", "bf", "wbf"],
        choices=["naive", "local", "bf", "wbf"],
    )
    compare.add_argument(
        "--fault-profile", default="none", choices=list(FAULT_PROFILE_CHOICES),
        help="Seeded fault plan of the simulated network (drop/duplicate/"
        "corrupt/reorder/straggler/blackout); surviving rounds produce "
        "identical results under any profile — only the costs change.",
    )
    compare.add_argument(
        "--net-seed", type=int, default=0,
        help="Seed of the network fault injector; the same (dataset seed, "
        "net seed, profile) triple replays a byte-identical event transcript.",
    )
    compare.add_argument(
        "--allow-partial", action="store_true",
        help="Let rounds survive station timeouts (lost stations drop out) "
        "instead of failing with RoundTimeoutError.",
    )

    table2 = subparsers.add_parser("table2", help="Reproduce Table II (effectiveness).")
    table2.add_argument("--days", type=_positive_int, default=4)
    table2.add_argument("--cohort-size", type=_positive_int, default=310)
    table2.add_argument("--epsilon", type=_non_negative_int, default=2)
    table2.add_argument("--seed", type=int, default=2009)

    convergence = subparsers.add_parser(
        "convergence", help="Reproduce the sample-count convergence study (Section V-B)."
    )
    convergence.add_argument(
        "--samples", type=_positive_int, nargs="+", default=[1, 2, 3, 5, 8, 12, 16]
    )
    convergence.add_argument("--groups", type=_positive_int, default=4)
    convergence.add_argument("--seed", type=int, default=97)

    figure = subparsers.add_parser("figure", help="Reproduce a descriptive figure.")
    figure.add_argument("name", choices=["fig1a", "fig1b", "fig3"])
    figure.add_argument("--seed", type=int, default=5)

    workload = subparsers.add_parser(
        "workload",
        help="Run or list the named multi-round traffic scenarios (repro.workloads).",
    )
    workload_sub = workload.add_subparsers(dest="workload_command", required=True)

    workload_sub.add_parser(
        "list", help="Print the scenario catalog with each spec's shape."
    )

    run = workload_sub.add_parser(
        "run",
        help="Replay one scenario; (scenario, seed) fully determines the run.",
    )
    run.add_argument("scenario", choices=list(scenario_names()))
    run.add_argument(
        "--rounds", type=_positive_int, default=None,
        help="Override the scenario's round count.",
    )
    run.add_argument(
        "--stations", type=_positive_int, default=None,
        help="Override the scenario's station count.",
    )
    run.add_argument(
        "--users-per-category", type=_positive_int, default=None,
        help="Eager-dataset scenarios: override the synthetic population "
        "density (streaming-source scenarios take --users-per-station).",
    )
    run.add_argument(
        "--users-per-station", type=_positive_int, default=None,
        help="Streaming-source scenarios: users derived per station batch "
        "(the declared population is stations x this).",
    )
    run.add_argument(
        "--max-resident", type=_positive_int, default=None,
        help="Streaming-source scenarios: LRU cap on resident station batches "
        "(the memory bound of the soak).",
    )
    run.add_argument(
        "--seed", type=int, default=None,
        help="Override the scenario seed (the replay identity is (scenario, seed)).",
    )
    run.add_argument(
        "--drive", default=None, choices=list(WORKLOAD_DRIVE_CHOICES),
        help="simulation = full wire rounds (default); session = incremental "
        "deltas through a continuous matching session; open = rate-driven "
        "admissions on a virtual clock (implied by --arrival-rate).",
    )
    run.add_argument(
        "--arrival-rate", type=_positive_float, default=None, metavar="QPS",
        help="Open-system target arrival rate in query batches per virtual "
        "second; implies --drive open and overrides the scenario's offered "
        "load. Past the cluster's service capacity, queueing delay accrues "
        "into latency_s (graceful saturation).",
    )
    run.add_argument(
        "--ramp", type=_parse_ramp, default=None,
        metavar="LABEL:DUR[:MULT],...",
        help="Open-system ramp schedule, e.g. "
        "'warm-up:4:0.5,plateau:8,spike:4:2.5,drain:4:0' — each phase offers "
        "arrival-rate x MULT for DUR virtual seconds.",
    )
    run.add_argument(
        "--arrival-process", default=None, choices=["poisson", "scheduled"],
        help="Inter-arrival draw process of the open drive: poisson = "
        "exponential gaps, scheduled = exact 1/rate spacing.",
    )
    run.add_argument(
        "--max-arrivals", type=_positive_int, default=None,
        help="Cap on admitted arrivals across the whole open-system run.",
    )
    run.add_argument(
        "--transport", default="sim", choices=list(TRANSPORT_CHOICES),
        help="Backhaul backend: sim = deterministic simulator, tcp = real "
        "localhost sockets with station worker processes (results and "
        "fault-free byte counts are transport-invariant).",
    )
    run.add_argument(
        "--topology", default=None, choices=list(TOPOLOGY_KINDS),
        help="Deployment topology override: star = the classic flat "
        "single-hop star, two-tier = regional aggregators between the "
        "center and the stations (see docs/topology.md).",
    )
    run.add_argument(
        "--regions", type=_positive_int, default=None,
        help="Two-tier only: number of regional aggregators; must not "
        "exceed the station count.",
    )
    run.add_argument(
        "--tenants", type=_positive_int, default=None,
        help="Serve N independent tenant query streams round-robin within "
        "each round (closed-loop drives only); the result reports "
        "per-tenant precision/latency/bytes.",
    )
    run.add_argument(
        "--fault-profile", default=None, choices=list(FAULT_PROFILE_CHOICES),
        help="Override the scenario's paired fault profile.",
    )
    run.add_argument(
        "--allow-partial", action="store_true",
        help="Let simulation-drive rounds survive station timeouts.",
    )
    run.add_argument(
        "--json-dir", default=None,
        help="Also write the run as BENCH_workload_<scenario>.json under this directory.",
    )

    return parser


def _run_compare(args: argparse.Namespace) -> str:
    dataset = build_dataset(
        DatasetSpec(
            users_per_category=args.users_per_category,
            station_count=args.stations,
            days=args.days,
            intervals_per_day=args.intervals_per_day,
            noise_level=args.noise,
            seed=args.seed,
        )
    )
    workload = build_query_workload(dataset, args.queries, args.epsilon, seed=args.seed)
    config = DIMatchingConfig(
        epsilon=args.epsilon,
        sample_count=args.sample_count,
    )
    # The fault profile is a deployment knob: it applies uniformly to every
    # method's round (the protocol config carries none).
    result = run_comparison(
        dataset,
        workload,
        config,
        methods=tuple(args.methods),
        fault_plan=args.fault_profile,
        net_seed=args.net_seed,
        allow_partial=args.allow_partial,
    )
    faulty = args.fault_profile != "none"
    rows = []
    for method in args.methods:
        outcome = result.outcome(method)
        relative = result.relative_costs(method, baseline=args.methods[0])
        row = [
            method,
            round(outcome.metrics.precision, 4),
            round(outcome.metrics.recall, 4),
            outcome.costs.communication_bytes,
            round(relative["communication"], 4),
            round(outcome.costs.total_time_s, 4),
        ]
        if faulty:
            row.extend(
                [
                    outcome.costs.retransmit_count,
                    round(outcome.costs.goodput_fraction, 4),
                    outcome.costs.lost_station_count,
                ]
            )
        rows.append(row)
    header = (
        f"dataset: {dataset.user_count} users, {dataset.station_count} stations, "
        f"{dataset.pattern_length} intervals; queries: {result.query_count} "
        f"({result.combined_pattern_count} combined patterns); "
        f"ground truth: {len(result.ground_truth)} users"
    )
    if faulty:
        header += f"; faults: {args.fault_profile} (net seed {args.net_seed})"
    columns = ["method", "precision", "recall", "comm bytes", "comm vs first", "time s"]
    if faulty:
        columns += ["retransmits", "goodput", "lost stations"]
    table = render_table(columns, rows)
    return f"{header}\n{table}"


def _run_table2(args: argparse.Namespace) -> str:
    rows = effectiveness_study(
        day_count=args.days,
        cohort_size=args.cohort_size,
        epsilon=args.epsilon,
        seed=args.seed,
    )
    return format_effectiveness_table(rows)


def _run_convergence(args: argparse.Namespace) -> str:
    results = convergence_study(
        sample_counts=args.samples, group_count=args.groups, seed=args.seed
    )
    return format_convergence_table(results)


def _run_figure(args: argparse.Namespace) -> str:
    if args.name == "fig1a":
        series = category_mean_series(days=2, bin_hours=6, seed=args.seed)
        return render_line_chart(
            series,
            x_values=list(range(len(next(iter(series.values()))))),
            title="Figure 1(a): normalised category patterns",
        )
    if args.name == "fig3":
        series = accumulated_category_series(days=7, bin_hours=6, seed=args.seed)
        return render_line_chart(
            series,
            x_values=list(range(len(next(iter(series.values()))))),
            title="Figure 3: accumulated category patterns",
        )
    dataset = build_dataset(
        DatasetSpec(
            users_per_category=30,
            station_count=6,
            noise_level=0,
            replicated_decoys_per_category=0,
            colocation_probability=0.05,
            seed=args.seed,
        )
    )
    counts = local_similarity_counts(dataset, epsilon=0, max_pairs=2000)
    return render_cdf(
        [float(c) for c in counts],
        title="Figure 1(b): CDF of similar local patterns among similar global pairs",
    )


def _run_workload_list(_args: argparse.Namespace) -> str:
    rows = []
    for name in scenario_names():
        spec = SCENARIOS[name]
        churn = (
            "static"
            if spec.churn.is_static
            else f"leave {spec.churn.leave_probability:g} / join {spec.churn.join_probability:g}"
        )
        stations = spec.effective_station_count
        if spec.source is not None and spec.source.kind == "streaming":
            # Streaming sources declare the city without materializing it.
            stations = f"{stations} (streaming)"
        rows.append(
            [
                name,
                spec.rounds,
                stations,
                spec.arrival.kind,
                churn,
                f"{spec.mix.zipf_s:g}",
                spec.fault_profile,
                spec.seed,
            ]
        )
    columns = [
        "scenario", "rounds", "stations", "arrival", "churn", "zipf s", "faults", "seed",
    ]
    table = render_table(columns, rows)
    descriptions = "\n".join(
        f"  {name}: {SCENARIOS[name].description}" for name in scenario_names()
    )
    return f"{table}\n{descriptions}"


def _run_workload_run(args: argparse.Namespace) -> str:
    open_flags = (
        args.arrival_rate is not None
        or args.ramp is not None
        or args.arrival_process is not None
        or args.max_arrivals is not None
    )
    drive = args.drive or ("open" if open_flags else "simulation")
    if open_flags and drive != "open":
        raise SystemExit(
            "workload run: --arrival-rate/--ramp/--arrival-process/"
            "--max-arrivals apply only to --drive open"
        )
    spec = get_scenario(args.scenario)
    overrides: dict[str, object] = {}
    if drive == "open":
        base = spec.offered
        if base is None and args.arrival_rate is None:
            raise SystemExit(
                f"workload run: scenario {args.scenario!r} declares no "
                "offered load; pass --arrival-rate"
            )
        if open_flags or base is None:
            try:
                overrides["offered"] = OfferedLoad(
                    rate_qps=(
                        args.arrival_rate
                        if args.arrival_rate is not None
                        else base.rate_qps
                    ),
                    process=args.arrival_process
                    or (base.process if base else "poisson"),
                    ramp=(
                        args.ramp
                        if args.ramp is not None
                        else (base.ramp if base else (RampPhase("plateau", 30.0),))
                    ),
                    max_arrivals=(
                        args.max_arrivals
                        if args.max_arrivals is not None
                        else (base.max_arrivals if base else 512)
                    ),
                )
            except ConfigurationError as error:
                raise SystemExit(f"workload run: {error}")
    if args.rounds is not None:
        overrides["rounds"] = args.rounds
    source = spec.source
    streaming = source is not None and source.kind == "streaming"
    if not streaming and (
        args.users_per_station is not None or args.max_resident is not None
    ):
        raise SystemExit(
            "workload run: --users-per-station/--max-resident apply only to "
            "streaming-source scenarios (this scenario materializes an eager "
            "dataset; use --users-per-category)"
        )
    if streaming and args.users_per_category is not None:
        raise SystemExit(
            "workload run: --users-per-category applies only to eager-dataset "
            "scenarios (this scenario streams its users from a source; use "
            "--users-per-station)"
        )
    source_updates: dict[str, object] = {}
    if args.stations is not None:
        if source is not None:
            # The cohort shape lives in the SourceSpec; scaling the city
            # clamps the per-round touch window with it.
            source_updates["station_count"] = args.stations
            if (
                source.stations_per_round is not None
                and source.stations_per_round > args.stations
            ):
                source_updates["stations_per_round"] = args.stations
        else:
            overrides["station_count"] = args.stations
        # Scaling a churny scenario below its floor clamps the floor with it.
        if spec.churn.min_active > args.stations:
            overrides["churn"] = replace(spec.churn, min_active=args.stations)
    if args.users_per_category is not None:
        overrides["users_per_category"] = args.users_per_category
    if args.users_per_station is not None:
        source_updates["users_per_station"] = args.users_per_station
    if args.max_resident is not None:
        source_updates["max_resident"] = args.max_resident
    if source_updates:
        try:
            overrides["source"] = source.with_updates(**source_updates)
        except ConfigurationError as error:
            raise SystemExit(f"workload run: {error}")
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.fault_profile is not None:
        overrides["fault_profile"] = args.fault_profile
    if args.allow_partial:
        overrides["allow_partial"] = True
    if args.regions is not None and (args.topology or "two-tier") != "two-tier":
        raise SystemExit(
            "workload run: --regions applies only to --topology two-tier"
        )
    if args.tenants is not None:
        if drive == "open":
            raise SystemExit(
                "workload run: --tenants applies only to the closed-loop "
                "drives (simulation/session)"
            )
        # Synthesized tenants share the scenario's query mix; each still
        # samples its own independent seeded stream.
        overrides["tenants"] = tuple(
            TenantSpec(f"tenant-{index}", spec.mix) for index in range(args.tenants)
        )
    if (
        args.topology is not None
        or args.regions is not None
        or args.tenants is not None
    ):
        base_topology = spec.topology
        kind = args.topology or (
            base_topology.kind
            if base_topology is not None
            else ("two-tier" if args.regions is not None else "star")
        )
        stream_count = max(
            1, len(overrides.get("tenants", spec.tenants))  # type: ignore[arg-type]
        )
        try:
            if kind == "star":
                overrides["topology"] = (
                    None
                    if stream_count == 1
                    else TopologySpec(kind="star", tenant_count=stream_count)
                )
            else:
                overrides["topology"] = TopologySpec(
                    kind="two-tier",
                    regions=(
                        args.regions
                        if args.regions is not None
                        else (
                            base_topology.regions
                            if base_topology is not None
                            and base_topology.is_hierarchical
                            else 2
                        )
                    ),
                    tenant_count=stream_count,
                )
        except ConfigurationError as error:
            raise SystemExit(f"workload run: {error}")
    if overrides:
        try:
            spec = spec.with_updates(**overrides)
        except ConfigurationError as error:
            raise SystemExit(f"workload run: {error}")

    result = run_workload(spec, drive=drive, transport=args.transport)

    faulty = spec.fault_profile != "none"
    open_run = drive == "open"
    columns = ["round"]
    if open_run:
        columns += ["phase", "arrival s"]
    columns += [
        "queries", "stations", "joined", "left",
        "down B", "up B", "latency s",
    ]
    if open_run:
        columns += ["queue s"]
    columns += ["precision", "recall"]
    if faulty:
        columns += ["retransmits", "goodput", "lost"]
    rows = []
    for metrics in result.rounds:
        row = [metrics.round_index]
        if open_run:
            row += [metrics.phase, round(metrics.arrival_s, 3)]
        row += [
            metrics.query_count,
            metrics.active_station_count,
            len(metrics.joined),
            len(metrics.left),
            metrics.downlink_bytes,
            metrics.uplink_bytes,
            round(metrics.latency_s, 4),
        ]
        if open_run:
            row += [round(metrics.queue_delay_s, 4)]
        row += [
            round(metrics.precision, 4),
            round(metrics.recall, 4),
        ]
        if faulty:
            row += [
                metrics.retransmit_count,
                round(metrics.goodput_fraction, 4),
                metrics.lost_station_count,
            ]
        rows.append(row)
    header = (
        f"scenario: {spec.name} (seed {spec.seed}, drive {drive}, "
        f"method {spec.method}, faults {spec.fault_profile}); "
        f"{result.round_count} rounds, {result.total_queries} queries, "
        f"{result.total_bytes} bytes"
    )
    if spec.topology is not None and spec.topology.is_hierarchical:
        header += f"; topology two-tier ({spec.topology.regions} regions)"
    if spec.tenants:
        header += f"; {len(spec.tenants)} tenants"
    if open_run and spec.offered is not None:
        header += (
            f"; offered {spec.offered.rate_qps:g} qps "
            f"({spec.offered.process}, {len(spec.offered.ramp)} phase"
            f"{'s' if len(spec.offered.ramp) != 1 else ''})"
        )
    summary_lines = []
    for name in ("bytes", "latency_s", "precision", "goodput"):
        stat = result.cumulative[name]
        summary_lines.append(
            f"  {name}: mean {stat.mean:.4g}  p50 {stat.p50:.4g}  "
            f"p90 {stat.p90:.4g}  p99 {stat.p99:.4g}  max {stat.maximum:.4g}"
        )
    for tenant_window in result.tenants:
        summary_lines.append(
            f"  tenant {tenant_window.name}: {tenant_window.round_count} rounds, "
            f"{tenant_window.query_count} queries, "
            f"{tenant_window.total_bytes} bytes, "
            f"precision mean {tenant_window.precision.mean:.4g}, "
            f"latency p50 {tenant_window.latency.p50:.4g}"
        )
    for window in result.phases:
        if window.latency is None:
            summary_lines.append(
                f"  phase {window.label}: offered {window.offered_qps:g} qps, "
                "no arrivals"
            )
            continue
        summary_lines.append(
            f"  phase {window.label}: offered {window.offered_qps:g} qps, "
            f"achieved {window.achieved_qps:.3g} qps, "
            f"latency p50 {window.latency.p50:.4g} p99 {window.latency.p99:.4g}, "
            f"queue max {window.queue_delay.maximum:.4g}"
        )
    output = f"{header}\n{render_table(columns, rows)}\n" + "\n".join(summary_lines)
    if args.json_dir is not None:
        from repro.evaluation.benchjson import workload_payload, write_bench_json

        path = write_bench_json(
            args.json_dir,
            f"workload_{spec.name.replace('-', '_')}",
            workload_payload(result),
        )
        output += f"\nwrote {path}"
    return output


def _run_workload(args: argparse.Namespace) -> str:
    if args.workload_command == "list":
        return _run_workload_list(args)
    return _run_workload_run(args)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point: parse arguments, run the requested experiment, print its report."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    runners = {
        "compare": _run_compare,
        "table2": _run_table2,
        "convergence": _run_convergence,
        "figure": _run_figure,
        "workload": _run_workload,
    }
    output = runners[args.command](args)
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
