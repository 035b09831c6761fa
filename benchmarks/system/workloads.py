"""The system benchmark's five workloads: set-up, one measured operation, checks.

Every workload drives the paper's WBF protocol with
``DIMatchingConfig(epsilon=0, sample_count=8, hash_count=4)`` on the serial
executor with no faults.  The client is closed-loop: one single-threaded
caller with one outstanding operation, the next sent only when the previous
one returned.

A workload's measured operation is one :meth:`Workload.op` call.  It returns a
:class:`Sample` covering one or more measured *rounds* (a ``Cluster.round``
call, a delta-session step, or one soak arrival).  Checks run after the loop,
on what the samples kept, and name every round they fail.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Iterator

import repro.datagen.scale as scale
from repro.cluster.facade import Cluster, ClusterSession
from repro.cluster.spec import ClusterSpec, ExecutorSpec, ProtocolSpec, TransportSpec
from repro.core.config import DIMatchingConfig
from repro.topology import TopologySpec
from repro.utils.rng import derive_seed
from repro.workloads import get_scenario, run_workload

BASELINES = Path(__file__).resolve().parents[1] / "baselines"

CONFIG = DIMatchingConfig(epsilon=0, sample_count=8, hash_count=4)
QUERY_COUNT = 16

#: sha256 of ``WorkloadResult.transcript_bytes()`` for ``open-soak-1m`` at its
#: catalog seed (1212) and full size.  ``BENCHMARK.json``'s fixed schema has
#: no field for it, so it is recorded here.
SOAK_TRANSCRIPT_SHA256 = "4910598776f2afa0554411611cb87ae466aaa36ec654901cecdd5333020a91bf"


@dataclass
class Sample:
    """What one measured operation produced."""

    rounds: int
    #: ``(start, end)`` of every measured round, in ``time.perf_counter`` seconds.
    round_spans: list[tuple[float, float]]
    downlink: list[int]
    uplink: list[int]
    #: Workload-specific values the checks and extra metrics read.
    data: dict = field(default_factory=dict)
    #: Whether the operation ran with the tracer installed.
    traced: bool = False


def ranked_digest(results) -> str:
    """sha256 over ``user:score`` lines, as the ``BENCH_*`` baselines record it."""
    lines = "\n".join(f"{entry.user_id}:{entry.score!r}" for entry in results.users)
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def source_users(queries) -> set[str]:
    """Each scale query is one user's fragments, so that user must be ranked."""
    return {query.query_id[len("q-"):] for query in queries}


def cluster_spec(name: str, *, topology=None, transport: str = "sim") -> ClusterSpec:
    return ClusterSpec(
        name=name,
        protocol=ProtocolSpec(method="wbf", config=CONFIG),
        transport=TransportSpec(transport=transport),
        executor=ExecutorSpec(kind="serial"),
        topology=topology,
    )


def _baseline(name: str) -> dict:
    return json.loads((BASELINES / f"BENCH_{name}.json").read_text(encoding="utf-8"))["payload"]


def _compare(what: str, got: dict, want: dict) -> list[tuple[str, str]]:
    """One warm-up failure listing every ``(got, want)`` pair that differs."""
    wrong = {key: (got[key], want[key]) for key in want if got[key] != want[key]}
    return [("warm-up", f"differs from {what} (got, want): {wrong}")] if wrong else []


class Workload:
    """Base class: ``setup`` builds the deployment, ``op`` runs one measured step."""

    name: str
    default_seed: int
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_reps: int = 2
    #: The loop never stops before this many operations (a full schedule cycle).
    min_ops: int = 1
    #: Operations of a ``--smoke`` run.
    smoke_ops: int = 3
    #: Root span name of one operation in a traced loop.
    root_span: str = "round"

    def setup(self, seed: int, smoke: bool):
        raise NotImplementedError

    def op(self, state, index: int, measured=nullcontext) -> Sample:
        """One measured operation; ``measured()`` wraps exactly its timed part."""
        raise NotImplementedError

    def check(self, state, samples: list[Sample], seed: int, smoke: bool) -> list[tuple[str, str]]:
        """``(round label, failure)`` pairs; empty when every check passed."""
        raise NotImplementedError

    def close(self, state) -> None:
        state.cluster.close()

    def extra_metrics(self, samples: list[Sample], seconds) -> dict[str, tuple[float, str]]:
        """Workload-specific extras; ``seconds(start, end)`` measures a span."""
        return {}

    def layer_counts(self, samples: list[Sample]) -> dict[str, float]:
        """Source-cache counts; only a streaming source has any."""
        return {"datagen.evictions": 0.0, "datagen.peak_resident": 0.0}


@dataclass
class RoundState:
    cluster: Cluster
    dataset: object
    queries: list
    warm: dict


def _round_summary(report) -> dict:
    summary = {
        "digest": ranked_digest(report.results),
        "downlink": report.downlink_bytes,
        "uplink": report.uplink_bytes,
        "reports": report.costs.report_count,
        "active": report.active_station_count,
        "lost": report.lost_station_count,
    }
    if report.costs.tiers:
        summary["trunk_uplink"] = report.costs.tiers[0].uplink_bytes
    return summary


class RoundsWorkload(Workload):
    """Repeated full wire rounds over one subscribed batch (``Cluster.round``)."""

    def __init__(self, name, default_seed, *, stations, users_per_station,
                 smoke_stations, topology=None, smoke_topology=None,
                 transport="sim", setup_reps=2, smoke_ops=3):
        self.name, self.default_seed = name, default_seed
        self.stations, self.users_per_station = stations, users_per_station
        self.smoke_stations = smoke_stations
        self.topology, self.smoke_topology = topology, smoke_topology
        self.transport = transport
        self.setup_reps, self.smoke_ops = setup_reps, smoke_ops

    def _build(self, seed: int, smoke: bool):
        stations = self.smoke_stations if smoke else self.stations
        dataset = scale.build_scale_dataset(
            stations, users_per_station=self.users_per_station, seed=seed
        )
        return dataset, scale.build_scale_queries(dataset, QUERY_COUNT, seed=seed)

    def setup(self, seed: int, smoke: bool) -> RoundState:
        dataset, queries = self._build(seed, smoke)
        topology = self.smoke_topology if smoke else self.topology
        cluster = Cluster(
            cluster_spec(self.name, topology=topology, transport=self.transport),
            dataset=dataset,
        )
        cluster.subscribe(queries)
        warm = cluster.round(k=None)
        summary = _round_summary(warm)
        summary["ranked"] = set(warm.results.user_ids())
        return RoundState(cluster, dataset, queries, summary)

    def op(self, state: RoundState, index: int, measured=nullcontext) -> Sample:
        with measured():
            start = perf_counter()
            report = state.cluster.round(k=None)
            span = (start, perf_counter())
        return Sample(1, [span], [report.downlink_bytes], [report.uplink_bytes],
                      _round_summary(report))

    def check(self, state, samples, seed, smoke):
        warm = state.warm
        failures = []
        stations = self.smoke_stations if smoke else self.stations
        if warm["active"] != stations or warm["lost"] or warm["reports"] <= 0:
            failures.append(("warm-up", f"round summary {warm}"))
        missing = source_users(state.queries) - warm["ranked"]
        if missing:
            failures.append(("warm-up", f"query source users not ranked: {sorted(missing)}"))
        failures += self.check_reference(state, seed, smoke)
        keys = ("digest", "downlink", "uplink", "reports", "lost")
        for index, sample in enumerate(samples):
            if any(sample.data[key] != warm[key] for key in keys):
                failures.append((str(index), "round differs from the warm-up round"))
        return failures

    def check_reference(self, state, seed, smoke) -> list[tuple[str, str]]:
        return []


class StarWorkload(RoundsWorkload):
    def check_reference(self, state, seed, smoke):
        if smoke or seed != self.default_seed:
            return []
        expected = _baseline("fig4_100x")["round"]
        got = {
            "ranked_digest": state.warm["digest"],
            "downlink_bytes": state.warm["downlink"],
            "uplink_bytes": state.warm["uplink"],
            "report_count": state.warm["reports"],
        }
        return _compare("BENCH_fig4_100x.json", got, {key: expected[key] for key in got})


class TwoTierWorkload(RoundsWorkload):
    def check_reference(self, state, seed, smoke):
        if smoke or seed != self.default_seed:
            return []
        expected = _baseline("hierarchy")
        got = {
            "ranked_digest": state.warm["digest"],
            "trunk_uplink_bytes": state.warm.get("trunk_uplink"),
        }
        want = {
            "ranked_digest": expected["ranked_digest"],
            "trunk_uplink_bytes": expected["trunk"]["uplink_bytes"],
        }
        return _compare("BENCH_hierarchy.json", got, want)


class TcpWorkload(RoundsWorkload):
    def check_reference(self, state, seed, smoke):
        # The same deployment on the simulator must rank and charge identically.
        with Cluster(cluster_spec(self.name), dataset=state.dataset) as reference:
            reference.subscribe(state.queries)
            sim = _round_summary(reference.round(k=None))
        keys = ("digest", "downlink", "uplink", "reports")
        return _compare("the same round on sim", state.warm, {key: sim[key] for key in keys})


@dataclass
class DeltaState:
    cluster: Cluster
    session: ClusterSession
    dataset: object
    station_ids: list
    window: int
    queries: list
    seed: int
    first: dict
    last_results: object = None


class DeltaWorkload(Workload):
    """Writes beside reads: a sliding window of stations is re-published every step."""

    name = "delta-5k"
    default_seed = 2014
    min_ops = 11
    smoke_ops = 11
    stations, window = 5_000, 50
    smoke_stations, smoke_window = 200, 5
    #: Every ``ROTATION_EVERY``-th step also subscribes a fresh query batch.
    ROTATION_EVERY = 11

    def setup(self, seed: int, smoke: bool) -> DeltaState:
        stations = self.smoke_stations if smoke else self.stations
        dataset = scale.build_scale_dataset(stations, users_per_station=1, seed=seed)
        queries = scale.build_scale_queries(dataset, QUERY_COUNT, seed=seed)
        cluster = Cluster(cluster_spec(self.name), dataset=dataset)
        session = cluster.open_session("deltas")
        session.subscribe(queries)
        station_ids = list(cluster.station_ids)
        for station_id in station_ids:
            session.publish(station_id, dataset.local_patterns_at(station_id))
        first = session.step(k=None)
        return DeltaState(
            cluster, session, dataset, station_ids,
            self.smoke_window if smoke else self.window, queries, seed,
            first={
                "missing": sorted(source_users(queries) - set(first.results.user_ids())),
                "delivered": len(first.delivered_station_ids),
            },
            last_results=first.results,
        )

    def op(self, state: DeltaState, index: int, measured=nullcontext) -> Sample:
        begin = (index * state.window) % len(state.station_ids)
        window = state.station_ids[begin:begin + state.window]
        rotation = index % self.ROTATION_EVERY == self.ROTATION_EVERY - 1
        if rotation:
            # Input generation stays outside the timed region.
            state.queries = scale.build_scale_queries(
                state.dataset, QUERY_COUNT, seed=derive_seed(state.seed, "delta-rotation", index)
            )
        patterns = [state.dataset.local_patterns_at(station_id) for station_id in window]
        publish_spans = []
        with measured():
            start = perf_counter()
            for station_id in window:
                state.session.retire(station_id)
            if rotation:
                state.session.subscribe(state.queries)
            for station_id, station_patterns in zip(window, patterns):
                begin_publish = perf_counter()
                state.session.publish(station_id, station_patterns)
                publish_spans.append((begin_publish, perf_counter()))
            report = state.session.step(k=None)
            span = (start, perf_counter())
        previous, state.last_results = state.last_results, report.results
        return Sample(1, [span], [report.downlink_bytes], [report.uplink_bytes], {
            "publish_spans": publish_spans,
            "rotation": rotation,
            "delivered": len(report.delivered_station_ids),
            # A rotation re-matches and re-ships every station.
            "dirty": len(state.station_ids) if rotation else len(window),
            "lost": report.lost_station_count,
            # Re-publishing unchanged data must leave the ranking as it was.
            "unchanged": rotation or report.results == previous,
            "missing": sorted(source_users(state.queries) - set(report.results.user_ids()))
            if rotation else [],
        })

    def check(self, state, samples, seed, smoke):
        failures = []
        if state.first["delivered"] != len(state.station_ids):
            failures.append(("warm-up", f"first step delivered {state.first['delivered']}"))
        if state.first["missing"]:
            failures.append(("warm-up", f"query source users not ranked: {state.first['missing']}"))
        for index, sample in enumerate(samples):
            data = sample.data
            if data["delivered"] != data["dirty"] or data["lost"]:
                failures.append((str(index), f"step delivered {data['delivered']}/{data['dirty']}"))
            elif not data["unchanged"]:
                failures.append((str(index), "ranking moved without a rotation"))
            elif data["missing"]:
                failures.append((str(index), f"query source users not ranked: {data['missing']}"))
        # The final delta ranking must equal a full wire round over the same
        # stations and batch.
        full = state.cluster.drive(state.cluster.protocol, state.cluster.queries, k=None)
        if full.results != state.last_results:
            failures.append((str(len(samples) - 1), "final ranking differs from a full round"))
        return failures

    def close(self, state: DeltaState) -> None:
        state.session.close()
        state.cluster.close()

    def extra_metrics(self, samples, seconds):
        publish = [seconds(*span) for sample in samples for span in sample.data["publish_spans"]]
        rotations = [seconds(*sample.round_spans[0]) for sample in samples if sample.data["rotation"]]
        return {
            "publish_p50_ms": (statistics.median(publish) * 1e3, "ms"),
            "rotation_step_s": (statistics.median(rotations), "s"),
        }


class _StepTimer:
    """Times every ``ClusterSession.step`` call while installed."""

    def __init__(self) -> None:
        self.calls: list[tuple[float, float]] = []

    @contextmanager
    def installed(self) -> Iterator["_StepTimer"]:
        original = ClusterSession.step
        calls = self.calls

        def step(session, *args, **kwargs):
            start = perf_counter()
            try:
                return original(session, *args, **kwargs)
            finally:
                calls.append((start, perf_counter()))

        ClusterSession.step = step
        try:
            yield self
        finally:
            ClusterSession.step = original


@dataclass
class SoakState:
    spec: object
    warm: Sample


class SoakWorkload(Workload):
    """The open-loop million-user soak, one ``run_workload`` call per operation."""

    name = "soak-1m"
    default_seed = 1212
    smoke_ops = 2
    root_span = "engine"

    def _spec(self, seed: int, smoke: bool):
        spec = get_scenario("open-soak-1m").with_updates(seed=seed)
        if smoke:
            spec = spec.with_updates(
                source=spec.source.with_updates(
                    station_count=200, users_per_station=3, max_resident=24
                ),
                offered=dataclasses.replace(spec.offered, max_arrivals=6),
            )
        return spec

    def _run(self, spec, measured=nullcontext) -> Sample:
        timer = _StepTimer()
        with timer.installed(), measured():
            result = run_workload(spec, drive="open")
        stats = result.source_stats
        return Sample(
            result.round_count,
            timer.calls,
            [metrics.downlink_bytes for metrics in result.rounds],
            [metrics.uplink_bytes for metrics in result.rounds],
            {
                "digest": hashlib.sha256(result.transcript_bytes()).hexdigest(),
                "rounds": result.round_count,
                "peak_resident": stats["peak_resident"],
                "max_resident": stats["max_resident"],
                "evictions": stats["evictions"],
            },
        )

    def setup(self, seed: int, smoke: bool) -> SoakState:
        spec = self._spec(seed, smoke)
        return SoakState(spec, self._run(spec))

    def op(self, state: SoakState, index: int, measured=nullcontext) -> Sample:
        return self._run(state.spec, measured)

    def check(self, state, samples, seed, smoke):
        failures = []
        expected_rounds = state.spec.offered.max_arrivals
        for label, sample in [("warm-up", state.warm)] + [
            (str(index), sample) for index, sample in enumerate(samples)
        ]:
            data = sample.data
            if data["digest"] != state.warm.data["digest"]:
                failures.append((label, "transcript differs from the warm-up run"))
            if data["rounds"] != expected_rounds or data["peak_resident"] > data["max_resident"]:
                failures.append((label, f"run stats {data}"))
        if not smoke and seed == self.default_seed and state.warm.data["digest"] != SOAK_TRANSCRIPT_SHA256:
            failures.append(("warm-up", "transcript differs from the recorded digest"))
        return failures

    def close(self, state: SoakState) -> None:
        pass

    def layer_counts(self, samples):
        rounds = sum(sample.rounds for sample in samples)
        return {
            "datagen.evictions": sum(sample.data["evictions"] for sample in samples) / rounds,
            "datagen.peak_resident": float(max(sample.data["peak_resident"] for sample in samples)),
        }


#: The five workloads, in run order.  Why each exists is recorded in
#: BENCHMARK.json and README.md.
WORKLOADS = {
    workload.name: workload
    for workload in (
        StarWorkload(
            "star-10k", 2012, stations=10_000, users_per_station=1, smoke_stations=200,
        ),
        TwoTierWorkload(
            "tier2-10k", 2013, stations=10_000, users_per_station=1, smoke_stations=200,
            topology=TopologySpec(kind="two-tier", regions=100),
            smoke_topology=TopologySpec(kind="two-tier", regions=4),
        ),
        DeltaWorkload(),
        # One worker process per station, so TCP cannot run at the 10k tiers.
        TcpWorkload(
            "tcp-8", 2015, stations=8, users_per_station=80, smoke_stations=3,
            transport="tcp", setup_reps=3, smoke_ops=10,
        ),
        SoakWorkload(),
    )
}
