"""The workload engine: compile a :class:`WorkloadSpec` into a multi-round drive.

The engine is a *traffic generator* over the :class:`repro.cluster.Cluster`
facade: it compiles the spec into a :class:`~repro.cluster.spec.ClusterSpec`
(:meth:`ClusterSpec.from_workload`), opens one
:class:`~repro.cluster.facade.ClusterSession` in the requested drive style and
feeds it churn, query rotations and per-round seeds.  Two drive modes
(``repro.core.config.WORKLOAD_DRIVE_CHOICES``):

* ``simulation`` — a ``mode="rounds"`` session: every step is a full wire
  round (encode → broadcast to the round's *active* stations → sharded
  matching → reliable uplink), churn expressed as per-step
  ``RoundOptions.station_ids`` subsets.  Costs are the real per-round wire
  bytes.
* ``session`` — a ``mode="deltas"`` session: one continuous matching session
  spans all rounds, query-batch rotations re-encode the artifact, churned
  stations are published/retired incrementally, and only the dirty stations'
  deltas ship through the seeded transport.  This is the steady-state serving
  model, where per-round traffic is the *delta*, not the whole round.
* ``open`` — the open-system mode: instead of a closed loop where each round
  fully drains before the next starts, query batches are *admitted* by
  arrival time on a virtual clock, drawn from the spec's
  :class:`~repro.workloads.spec.OfferedLoad` (target QPS × ramp-phase
  multipliers, Poisson or scheduled inter-arrival gaps).  Admissions feed a
  single-server queue over the same ``mode="rounds"`` session: when service
  time (the round's virtual transmission time) exceeds the inter-arrival
  gap, queueing delay accrues into ``latency_s`` — saturation degrades
  latency gracefully instead of erroring.

Determinism: every stochastic decision of a run — the synthetic city, each
round's query sample, the churn draws and the transport's fault schedule —
derives from ``(spec.name, spec.seed)`` via :func:`repro.utils.rng.derive_seed`
with a distinct label per process and round.  The resulting
:meth:`~repro.workloads.result.WorkloadResult.transcript_bytes` is therefore
byte-identical across runs and across station executors; the replay suite
under ``tests/workloads/`` pins this for every registered scenario, and pins
it against the pre-facade engine through committed golden digests.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.facade import Cluster, ClusterSession
from repro.cluster.spec import ClusterSpec
from repro.core.config import WORKLOAD_DRIVE_CHOICES
from repro.datagen.workload import DistributedDataset, build_dataset
from repro.distributed.network import NetworkConfig
from repro.distributed.simulator import RoundOptions
from repro.evaluation.experiments import ground_truth_users
from repro.evaluation.metrics import evaluate_retrieval
from repro.timeseries.query import QueryPattern
from repro.utils.rng import derive_seed, make_rng
from repro.workloads.result import RoundMetrics, WorkloadAggregator, WorkloadResult
from repro.workloads.spec import RampPhase, WorkloadSpec


def _round_net_seed(spec: WorkloadSpec, round_index: int) -> int:
    """The transport seed of one round — pure function of ``(name, seed, round)``."""
    return derive_seed(spec.seed, "workload-net", spec.name, round_index)


class _ChurnState:
    """Deterministic station membership across rounds.

    Stations are iterated in sorted order and every draw comes from a
    per-round RNG derived from the workload identity, so the membership
    schedule is independent of dict ordering, executors and call timing.
    """

    def __init__(self, spec: WorkloadSpec, station_ids: Sequence[str]) -> None:
        self._spec = spec
        self._all = sorted(str(station_id) for station_id in station_ids)
        self._active = list(self._all)

    @property
    def active(self) -> tuple[str, ...]:
        """The currently active stations, in sorted order."""
        return tuple(self._active)

    def step(self, round_index: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Advance to ``round_index`` and return ``(joined, left)``.

        Round 0 never churns: every workload starts from the full deployment,
        so the first round's transcript anchors the scenario.
        """
        churn = self._spec.churn
        if round_index == 0 or churn.is_static and churn.join_probability == 1.0:
            return ((), ())
        rng = make_rng(
            self._spec.seed, "workload-churn", self._spec.name, round_index
        )
        joined: list[str] = []
        left: list[str] = []
        active = set(self._active)
        for station_id in self._all:
            draw = float(rng.random())
            if station_id in active:
                if draw < churn.leave_probability:
                    left.append(station_id)
            elif draw < churn.join_probability:
                joined.append(station_id)
        survivors = [s for s in self._active if s not in set(left)]
        # Keep at least min_active stations up by reviving leavers, in
        # sorted station order (the order `left` was collected in).
        while len(survivors) + len(joined) < churn.min_active and left:
            revived = left.pop(0)
            survivors = [s for s in self._all if s in set(survivors) | {revived}]
        self._active = sorted(set(survivors) | set(joined))
        return (tuple(joined), tuple(left))


class _QuerySampler:
    """Seeded, optionally Zipf-skewed exemplar sampling.

    The hot-set *order* is drawn once from the workload identity (a seeded
    permutation of the sorted non-decoy user pool); per-round draws then pick
    ranks with weight ``1 / (rank + 1)^s``.  ``s = 0`` is uniform.
    """

    def __init__(self, spec: WorkloadSpec, dataset: DistributedDataset) -> None:
        self._spec = spec
        self._dataset = dataset
        pool = [
            user_id
            for user_id in sorted(dataset.user_ids)
            if not dataset.profile(user_id).is_decoy
        ]
        mix = spec.mix
        if mix.categories is not None:
            wanted = set(mix.categories)
            unknown = wanted - {dataset.category_of(u) for u in pool}
            if unknown:
                raise ValueError(
                    f"query mix names unknown categories {sorted(unknown)!r}"
                )
            pool = [u for u in pool if dataset.category_of(u) in wanted]
        if not pool:
            raise ValueError("query mix selects no exemplar users")
        order_rng = make_rng(spec.seed, "workload-hotset", spec.name)
        order = order_rng.permutation(len(pool))
        self._pool = [pool[int(index)] for index in order]
        if mix.zipf_s > 0.0:
            weights = [1.0 / float(rank + 1) ** mix.zipf_s for rank in range(len(pool))]
            total = sum(weights)
            self._weights = [w / total for w in weights]
        else:
            self._weights = None

    def sample(self, round_index: int, count: int) -> list[QueryPattern]:
        """The round's query batch: ``count`` exemplar-derived query patterns."""
        rng = make_rng(
            self._spec.seed, "workload-queries", self._spec.name, round_index
        )
        indices = rng.choice(
            len(self._pool), size=count, replace=True, p=self._weights
        )
        queries = []
        for position, index in enumerate(indices):
            user_id = self._pool[int(index)]
            queries.append(
                QueryPattern(
                    f"q{round_index:03d}-{position:03d}-{user_id}",
                    self._dataset.local_patterns_for(user_id),
                )
            )
        return queries


class _EagerProvider:
    """The materialized-dataset data plane of a workload run.

    Thin glue over the classic pieces — :class:`_QuerySampler`,
    :func:`ground_truth_users` and the dataset's pattern accessors — kept
    byte-identical to the pre-:class:`StationSource` engine so every golden
    transcript replays unchanged.
    """

    def __init__(self, spec: WorkloadSpec, dataset: DistributedDataset) -> None:
        self._spec = spec
        self._dataset = dataset
        self._sampler = _QuerySampler(spec, dataset)

    def sample(self, round_index: int, count: int) -> list[QueryPattern]:
        return self._sampler.sample(round_index, count)

    def truth(self, queries: Sequence[QueryPattern]) -> frozenset[str]:
        return frozenset(
            ground_truth_users(self._dataset, queries, float(self._spec.epsilon))
        )

    def patterns_at(self, station_id: str):
        return self._dataset.local_patterns_at(station_id)

    def round_station_ids(
        self, round_index: int, active: tuple[str, ...]
    ) -> tuple[str, ...]:
        """Eager rounds touch every churn-active station."""
        return active

    def observe(self) -> None:
        """Nothing to track: the whole city is resident by construction."""

    def stats(self) -> "dict[str, object] | None":
        return None


class _SourceProvider:
    """The streaming-source data plane: bounded residency at any declared scale.

    Queries are uniform draws over the source's exemplar space (an O(1)
    index draw plus an O(fragments) derivation — never a population scan),
    ground truth is the source's own :meth:`StationSource.ground_truth`, and
    ``stations_per_round`` windows each round's touch set so round cost
    scales with the window, not the declared city.  ``observe``/:meth:`stats`
    track the peak resident station batches and eviction traffic the soak
    benchmark commits as headline metrics.
    """

    def __init__(self, spec: WorkloadSpec, source) -> None:
        self._spec = spec
        self._source = source
        source_spec = spec.effective_source()
        self._window = source_spec.stations_per_round
        self._max_resident = source_spec.max_resident
        self._peak_resident = 0
        self.observe()

    def sample(self, round_index: int, count: int) -> list[QueryPattern]:
        rng = make_rng(
            self._spec.seed, "workload-queries", self._spec.name, round_index
        )
        indices = rng.integers(0, self._source.exemplar_count, size=count)
        queries = []
        for position, index in enumerate(indices):
            exemplar = self._source.exemplar_query(int(index))
            # Exemplar ids are "q-<user>"; rebrand with the engine's round
            # coordinates, the same shape the eager sampler emits.
            queries.append(
                QueryPattern(
                    f"q{round_index:03d}-{position:03d}-{exemplar.query_id[2:]}",
                    exemplar.local_patterns,
                )
            )
        return queries

    def truth(self, queries: Sequence[QueryPattern]) -> frozenset[str]:
        return self._source.ground_truth(queries, float(self._spec.epsilon))

    def patterns_at(self, station_id: str):
        return self._source.local_patterns_at(station_id)

    def round_station_ids(
        self, round_index: int, active: tuple[str, ...]
    ) -> tuple[str, ...]:
        """A seeded ``stations_per_round`` window of the active set."""
        if self._window is None or self._window >= len(active):
            return active
        rng = make_rng(self._spec.seed, "workload-touch", self._spec.name, round_index)
        chosen = rng.choice(len(active), size=self._window, replace=False)
        return tuple(sorted(active[int(position)] for position in chosen))

    def observe(self) -> None:
        """Record the residency high-water mark after a step."""
        self._peak_resident = max(self._peak_resident, self._source.resident_count)

    def stats(self) -> "dict[str, object] | None":
        return {
            "kind": "streaming",
            "declared_users": int(self._source.user_count),
            "station_count": len(self._source.station_ids),
            "max_resident": int(self._max_resident),
            "stations_per_round": self._window,
            "peak_resident": int(self._peak_resident),
            "built": int(getattr(self._source, "built_count", self._source.resident_count)),
            "evictions": int(getattr(self._source, "eviction_count", 0)),
        }


def run_workload(
    spec: WorkloadSpec,
    *,
    drive: str = "simulation",
    executor: str = "serial",
    shard_count: int = 0,
    bit_backend: str = "auto",
    network_config: NetworkConfig | None = None,
    transport: str = "sim",
) -> WorkloadResult:
    """Compile ``spec`` into a multi-round facade drive and run it to completion.

    ``executor`` / ``shard_count`` / ``bit_backend`` are local scale knobs:
    like everywhere else in the system they change wall-clock only, never the
    results, byte counts or the replayed transcript.  ``transport`` selects
    the backhaul backend (``repro.core.config.TRANSPORT_CHOICES``): ``"sim"``
    replays on the deterministic simulator, ``"tcp"`` drives the same rounds
    over real localhost sockets with station worker processes.  Fault-free
    runs produce identical results and byte counts on both; wire latencies
    become wall-clock measurements on ``"tcp"``.
    """
    if drive not in WORKLOAD_DRIVE_CHOICES:
        raise ValueError(
            f"drive must be one of {WORKLOAD_DRIVE_CHOICES}, got {drive!r}"
        )
    if drive == "open" and spec.offered is None:
        raise ValueError(
            "the open drive needs an arrival model: set WorkloadSpec.offered "
            "to an OfferedLoad (target QPS + ramp phases)"
        )
    if drive == "open" and spec.tenants:
        raise ValueError(
            "tenant multiplexing is a closed-loop feature: the open drive "
            "admits one arrival stream, so drop tenants or use the "
            "simulation/session drives"
        )
    cluster_spec = ClusterSpec.from_workload(
        spec,
        executor=executor,
        shard_count=shard_count,
        bit_backend=bit_backend,
        network_config=network_config,
        transport=transport,
    )
    if cluster_spec.source is not None:
        # Streaming city: the source *is* the dataset boundary — batches are
        # derived on demand and the whole population is never materialized.
        source = cluster_spec.source.build()
        provider: _EagerProvider | _SourceProvider = _SourceProvider(spec, source)
        cluster_cm = Cluster(cluster_spec, source=source)
    else:
        dataset = build_dataset(cluster_spec.dataset)
        provider = _EagerProvider(spec, dataset)
        cluster_cm = Cluster(cluster_spec, dataset=dataset)
    aggregator = WorkloadAggregator(
        scenario=spec.name,
        seed=spec.seed,
        drive=drive,
        method=spec.method,
        fault_profile=spec.fault_profile,
        # The session drive matches in-process and never constructs an
        # executor runner; recording the knob there would misstate the run.
        executor=executor if drive != "session" else "serial",
    )
    tenant_providers: dict[str, _EagerProvider] | None = None
    if spec.tenants:
        # Tenants require an eager source (spec validation), so ``dataset``
        # is bound.  Each tenant samples through a tenant-qualified spec name
        # — its hot-set and per-round query streams derive from labels no
        # other tenant (and no single-stream run) shares.
        tenant_providers = {
            tenant.name: _EagerProvider(
                spec.with_updates(name=f"{spec.name}#{tenant.name}", mix=tenant.mix),
                dataset,
            )
            for tenant in spec.tenants
        }
    with cluster_cm as cluster:
        session = cluster.open_session(
            mode="deltas" if drive == "session" else "rounds"
        )
        if drive == "simulation":
            if tenant_providers is not None:
                _drive_rounds_tenants(
                    spec, tenant_providers, cluster, session, aggregator
                )
            else:
                _drive_rounds(spec, provider, cluster, session, aggregator)
        elif drive == "open":
            _drive_open(spec, provider, cluster, session, aggregator)
        elif tenant_providers is not None:
            _drive_deltas_tenants(spec, tenant_providers, cluster, session, aggregator)
        else:
            _drive_deltas(spec, provider, cluster, session, aggregator)
    aggregator.set_source_stats(provider.stats())
    return aggregator.finish()


def _drive_rounds(
    spec: WorkloadSpec,
    provider: _EagerProvider | _SourceProvider,
    cluster: Cluster,
    session: ClusterSession,
    aggregator: WorkloadAggregator,
) -> None:
    """Full per-round wire rounds over churned station subsets."""
    churn = _ChurnState(spec, cluster.station_ids)
    queries: list[QueryPattern] = []
    truth: frozenset[str] = frozenset()
    for round_index in range(spec.rounds):
        joined, left = churn.step(round_index)
        refreshed = spec.arrival.refreshes_at(round_index)
        if refreshed:
            queries = provider.sample(round_index, spec.arrival.count_at(round_index))
            # Ground truth is a pure function of the batch: recompute
            # only on rotation, not per round.
            truth = provider.truth(queries)
            session.subscribe(queries)
        round_stations = provider.round_station_ids(round_index, churn.active)
        report = session.step(
            RoundOptions(
                station_ids=round_stations,
                net_seed=_round_net_seed(spec, round_index),
                k=len(truth),
            )
        )
        provider.observe()
        metrics = evaluate_retrieval(tuple(report.retrieved_user_ids), truth)
        aggregator.add_round(
            RoundMetrics(
                round_index=round_index,
                query_count=len(queries),
                active_station_count=len(round_stations),
                joined=joined,
                left=left,
                downlink_bytes=report.downlink_bytes,
                uplink_bytes=report.uplink_bytes,
                precision=metrics.precision,
                recall=metrics.recall,
                latency_s=report.latency_s,
                goodput_fraction=report.goodput_fraction,
                retransmit_count=report.retransmit_count,
                lost_station_count=report.lost_station_count,
                batch_refreshed=refreshed,
                compute_time_s=report.costs.computation_time_s,
            ),
            report.transcript,
        )


def _drive_rounds_tenants(
    spec: WorkloadSpec,
    providers: "dict[str, _EagerProvider]",
    cluster: Cluster,
    session: ClusterSession,
    aggregator: WorkloadAggregator,
) -> None:
    """Round-robin tenant multiplexing over full wire rounds.

    Every macro-round serves each tenant once, in declaration order: the
    tenant's batch is (re-)subscribed, one wire round runs, and the round's
    metrics are attributed to that tenant.  Churn advances once per
    macro-round and is reported on its first slot, so the per-tenant byte and
    query totals partition the run's totals exactly.
    """
    churn = _ChurnState(spec, cluster.station_ids)
    queries: dict[str, list[QueryPattern]] = {t.name: [] for t in spec.tenants}
    truth: dict[str, frozenset[str]] = {t.name: frozenset() for t in spec.tenants}
    round_index = 0
    for macro_round in range(spec.rounds):
        joined, left = churn.step(macro_round)
        refreshed = spec.arrival.refreshes_at(macro_round)
        for slot, tenant in enumerate(spec.tenants):
            provider = providers[tenant.name]
            if refreshed:
                queries[tenant.name] = provider.sample(
                    macro_round, spec.arrival.count_at(macro_round)
                )
                truth[tenant.name] = provider.truth(queries[tenant.name])
            # One physical deployment serves all tenants: each slot rotates
            # the artifact to its tenant's batch before the round runs.
            session.subscribe(queries[tenant.name])
            round_stations = provider.round_station_ids(macro_round, churn.active)
            report = session.step(
                RoundOptions(
                    station_ids=round_stations,
                    net_seed=_round_net_seed(spec, round_index),
                    k=len(truth[tenant.name]),
                )
            )
            metrics = evaluate_retrieval(
                tuple(report.retrieved_user_ids), truth[tenant.name]
            )
            aggregator.add_round(
                RoundMetrics(
                    round_index=round_index,
                    query_count=len(queries[tenant.name]),
                    active_station_count=len(round_stations),
                    joined=joined if slot == 0 else (),
                    left=left if slot == 0 else (),
                    downlink_bytes=report.downlink_bytes,
                    uplink_bytes=report.uplink_bytes,
                    precision=metrics.precision,
                    recall=metrics.recall,
                    latency_s=report.latency_s,
                    goodput_fraction=report.goodput_fraction,
                    retransmit_count=report.retransmit_count,
                    lost_station_count=report.lost_station_count,
                    batch_refreshed=refreshed,
                    compute_time_s=report.costs.computation_time_s,
                    tenant=tenant.name,
                ),
                report.transcript,
            )
            round_index += 1


def _drive_deltas_tenants(
    spec: WorkloadSpec,
    providers: "dict[str, _EagerProvider]",
    cluster: Cluster,
    session: ClusterSession,
    aggregator: WorkloadAggregator,
) -> None:
    """Round-robin tenant multiplexing over one continuous delta session.

    Rotating to a tenant's batch re-encodes the artifact and re-matches every
    station (all stations go dirty), so each slot ships a full delta set —
    the honest cost of serving several independent query streams through one
    shared session.  Churn is applied on each macro-round's first slot.
    """
    churn = _ChurnState(spec, cluster.station_ids)
    queries: dict[str, list[QueryPattern]] = {t.name: [] for t in spec.tenants}
    truth: dict[str, frozenset[str]] = {t.name: frozenset() for t in spec.tenants}
    started = False
    round_index = 0
    for macro_round in range(spec.rounds):
        joined, left = churn.step(macro_round)
        refreshed = spec.arrival.refreshes_at(macro_round)
        for slot, tenant in enumerate(spec.tenants):
            provider = providers[tenant.name]
            if refreshed:
                queries[tenant.name] = provider.sample(
                    macro_round, spec.arrival.count_at(macro_round)
                )
                truth[tenant.name] = provider.truth(queries[tenant.name])
            if not started:
                session.subscribe(queries[tenant.name])
                for station_id in churn.active:
                    session.publish(station_id, provider.patterns_at(station_id))
                started = True
            else:
                if slot == 0:
                    # Departures first, exactly like the single-stream drive.
                    for station_id in left:
                        session.retire(station_id)
                session.subscribe(queries[tenant.name])
                if slot == 0:
                    for station_id in joined:
                        session.publish(
                            station_id, provider.patterns_at(station_id)
                        )
            report = session.step(
                RoundOptions(
                    net_seed=_round_net_seed(spec, round_index),
                    k=len(truth[tenant.name]),
                )
            )
            metrics = evaluate_retrieval(
                tuple(report.retrieved_user_ids), truth[tenant.name]
            )
            aggregator.add_round(
                RoundMetrics(
                    round_index=round_index,
                    query_count=len(queries[tenant.name]),
                    active_station_count=len(churn.active),
                    joined=joined if slot == 0 else (),
                    left=left if slot == 0 else (),
                    downlink_bytes=report.downlink_bytes,
                    uplink_bytes=report.uplink_bytes,
                    precision=metrics.precision,
                    recall=metrics.recall,
                    latency_s=report.latency_s,
                    goodput_fraction=report.goodput_fraction,
                    retransmit_count=report.retransmit_count,
                    lost_station_count=report.lost_station_count,
                    batch_refreshed=refreshed,
                    tenant=tenant.name,
                ),
                report.transcript,
            )
            round_index += 1


def _phase_arrivals(
    spec: WorkloadSpec,
    phase: RampPhase,
    phase_start: float,
    budget: int,
) -> list[float]:
    """Virtual arrival times falling inside ``phase``, at most ``budget`` many.

    Every gap is a pure function of ``(spec.name, spec.seed, phase.label)``:
    the per-phase RNG stream is derived once and consumed in order, so the
    schedule is identical across runs, executors and bit backends.  A
    ``scheduled`` process emits exact ``1/rate`` gaps; ``poisson`` draws
    exponential gaps at the same mean.
    """
    offered = spec.offered
    assert offered is not None
    rate = offered.rate_during(phase)
    if rate <= 0.0 or budget <= 0:
        return []
    phase_end = phase_start + float(phase.duration_s)
    rng = make_rng(spec.seed, "workload-arrivals", spec.name, phase.label)
    arrivals: list[float] = []
    clock = phase_start
    mean_gap = 1.0 / rate
    while len(arrivals) < budget:
        if offered.process == "poisson":
            gap = float(rng.exponential(mean_gap))
        else:
            gap = mean_gap
        clock += gap
        if clock >= phase_end:
            break
        arrivals.append(clock)
    return arrivals


def _drive_open(
    spec: WorkloadSpec,
    provider: _EagerProvider | _SourceProvider,
    cluster: Cluster,
    session: ClusterSession,
    aggregator: WorkloadAggregator,
) -> None:
    """Rate-driven admissions through a single-server virtual-clock queue.

    Each admitted query batch runs one full wire round (the same
    ``mode="rounds"`` step the simulation drive uses); its *service time* is
    the round's virtual transmission time.  The queue is work-conserving
    single-server: an arrival starts at ``max(arrival, busy_until)``, so once
    service time exceeds the inter-arrival gap the excess accrues as
    ``queue_delay_s`` and ``latency_s = queue_delay + service`` degrades
    gracefully — the saturation signal this drive exists to measure.
    ``spec.rounds`` is ignored; the arrival schedule (phase durations, rates
    and ``max_arrivals``) decides how many rounds run.
    """
    offered = spec.offered
    assert offered is not None
    churn = _ChurnState(spec, cluster.station_ids)
    queries: list[QueryPattern] = []
    truth: frozenset[str] = frozenset()
    busy_until = 0.0
    arrival_index = 0
    phase_start = 0.0
    for phase in offered.ramp:
        rate = offered.rate_during(phase)
        aggregator.begin_phase(
            phase.label, rate, float(phase.duration_s), start_s=phase_start
        )
        arrivals = _phase_arrivals(
            spec, phase, phase_start, offered.max_arrivals - arrival_index
        )
        phase_start += float(phase.duration_s)
        for arrival_s in arrivals:
            joined, left = churn.step(arrival_index)
            refreshed = spec.arrival.refreshes_at(arrival_index)
            if refreshed:
                queries = provider.sample(
                    arrival_index, spec.arrival.count_at(arrival_index)
                )
                truth = provider.truth(queries)
                session.subscribe(queries)
            round_stations = provider.round_station_ids(arrival_index, churn.active)
            report = session.step(
                RoundOptions(
                    station_ids=round_stations,
                    net_seed=_round_net_seed(spec, arrival_index),
                    k=len(truth),
                )
            )
            provider.observe()
            service_s = report.latency_s
            start_s = max(arrival_s, busy_until)
            queue_delay_s = start_s - arrival_s
            busy_until = start_s + service_s
            metrics = evaluate_retrieval(tuple(report.retrieved_user_ids), truth)
            aggregator.add_round(
                RoundMetrics(
                    round_index=arrival_index,
                    query_count=len(queries),
                    active_station_count=len(round_stations),
                    joined=joined,
                    left=left,
                    downlink_bytes=report.downlink_bytes,
                    uplink_bytes=report.uplink_bytes,
                    precision=metrics.precision,
                    recall=metrics.recall,
                    latency_s=queue_delay_s + service_s,
                    goodput_fraction=report.goodput_fraction,
                    retransmit_count=report.retransmit_count,
                    lost_station_count=report.lost_station_count,
                    batch_refreshed=refreshed,
                    compute_time_s=report.costs.computation_time_s,
                    phase=phase.label,
                    arrival_s=arrival_s,
                    queue_delay_s=queue_delay_s,
                ),
                report.transcript,
            )
            arrival_index += 1
    if arrival_index == 0:
        raise ValueError(
            "the offered load admitted no arrivals: every ramp phase is "
            "either zero-rate or shorter than one inter-arrival gap"
        )


def _drive_deltas(
    spec: WorkloadSpec,
    provider: _EagerProvider | _SourceProvider,
    cluster: Cluster,
    session: ClusterSession,
    aggregator: WorkloadAggregator,
) -> None:
    """One continuous delta session across all rounds.

    Downlink is charged when the artifact changes (batch rotation — the
    re-encoded artifact's wire size once per active station) and for every
    station that joins mid-campaign; uplink is the real wire bytes of the
    round's delta shipment.  The facade session owns that accounting and the
    center-side "last delivered state" view — an undelivered delta leaves the
    center serving the previous state, visible in the round's
    precision/recall.
    """
    churn = _ChurnState(spec, cluster.station_ids)
    queries: list[QueryPattern] = []
    truth: frozenset[str] = frozenset()
    started = False
    for round_index in range(spec.rounds):
        joined, left = churn.step(round_index)
        refreshed = spec.arrival.refreshes_at(round_index)
        if refreshed:
            queries = provider.sample(round_index, spec.arrival.count_at(round_index))
            truth = provider.truth(queries)
        if not started:
            session.subscribe(queries)
            for station_id in churn.active:
                session.publish(station_id, provider.patterns_at(station_id))
            started = True
        else:
            # Departures first, so a simultaneous rotation never re-matches
            # stations that are leaving this round anyway.
            for station_id in left:
                session.retire(station_id)
            if refreshed:
                session.subscribe(queries)
            for station_id in joined:
                session.publish(station_id, provider.patterns_at(station_id))
        report = session.step(
            RoundOptions(net_seed=_round_net_seed(spec, round_index), k=len(truth))
        )
        provider.observe()
        metrics = evaluate_retrieval(tuple(report.retrieved_user_ids), truth)
        aggregator.add_round(
            RoundMetrics(
                round_index=round_index,
                query_count=len(queries),
                active_station_count=len(churn.active),
                joined=joined,
                left=left,
                downlink_bytes=report.downlink_bytes,
                uplink_bytes=report.uplink_bytes,
                precision=metrics.precision,
                recall=metrics.recall,
                latency_s=report.latency_s,
                goodput_fraction=report.goodput_fraction,
                retransmit_count=report.retransmit_count,
                lost_station_count=report.lost_station_count,
                batch_refreshed=refreshed,
            ),
            report.transcript,
        )
