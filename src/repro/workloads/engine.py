"""The workload engine: compile a :class:`WorkloadSpec` into a multi-round drive.

The engine is a *traffic generator* over the :class:`repro.cluster.Cluster`
facade: it compiles the spec into a :class:`~repro.cluster.spec.ClusterSpec`
(:meth:`ClusterSpec.from_workload`), opens one
:class:`~repro.cluster.facade.ClusterSession` and runs one drive loop over
*ticks* × *streams*.  A stream is one query source: a single-stream run has
one, a multi-tenant run one per :class:`~repro.workloads.spec.TenantSpec`,
served round-robin in declaration order.  Each tick advances churn and the
arrival process once, then serves every stream one session step.  The three
drives (``repro.core.config.WORKLOAD_DRIVE_CHOICES``) differ only in the
session mode and in where the ticks come from:

* ``simulation`` — ``spec.rounds`` ticks over a ``mode="rounds"`` session:
  every step is a full wire round (encode → broadcast to the round's
  *active* stations → station matching → reliable uplink), churn expressed
  as per-step ``RoundOptions.station_ids`` subsets.  Costs are the real
  per-round wire bytes.
* ``session`` — ``spec.rounds`` ticks over a ``mode="deltas"`` session: one
  continuous matching session spans all rounds, query-batch rotations
  re-encode the artifact, churned stations are published/retired
  incrementally, and only the dirty stations' deltas ship through the seeded
  transport.  This is the steady-state serving model, where per-round traffic
  is the *delta*, not the whole round.
* ``open`` — the open-system mode over a ``mode="rounds"`` session: instead
  of a closed loop where each round fully drains before the next starts, each
  tick is a query batch *admitted* by arrival time on a virtual clock, drawn
  from the spec's :class:`~repro.workloads.spec.OfferedLoad` (target QPS ×
  ramp-phase multipliers, Poisson or scheduled inter-arrival gaps).
  Admissions feed a single-server queue: when service time (the round's
  virtual transmission time) exceeds the inter-arrival gap, queueing delay
  accrues into ``latency_s`` — saturation degrades latency gracefully instead
  of erroring.

Determinism: every stochastic decision of a run — the synthetic city, each
round's query sample, the churn draws and the transport's fault schedule —
derives from ``(spec.name, spec.seed)`` via :func:`repro.utils.rng.derive_seed`
with a distinct label per process and round.  The resulting
:meth:`~repro.workloads.result.WorkloadResult.transcript_bytes` is therefore
byte-identical across runs and interpreters; the replay suite
under ``tests/workloads/`` pins this for every registered scenario, and pins
it against the pre-facade engine through committed golden digests.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Iterator, Sequence

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
from repro.workloads.spec import WorkloadSpec


def _round_net_seed(spec: WorkloadSpec, round_index: int) -> int:
    """The transport seed of one round — pure function of ``(name, seed, round)``."""
    return derive_seed(spec.seed, "workload-net", spec.name, round_index)


class _ChurnState:
    """Deterministic station membership across rounds.

    Stations are iterated in sorted order and every draw comes from a
    per-round RNG derived from the workload identity, so the membership
    schedule is independent of dict ordering and call timing.
    """

    def __init__(self, spec: WorkloadSpec, station_ids: Sequence[str]) -> None:
        self._spec = spec
        self._all = sorted(str(station_id) for station_id in station_ids)
        self._active = tuple(self._all)

    @property
    def active(self) -> tuple[str, ...]:
        """The currently active stations, in sorted order."""
        return self._active

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
        survivors = active.difference(left)
        # Keep at least min_active stations up by reviving leavers, in
        # sorted station order (the order `left` was collected in).
        while len(survivors) + len(joined) < churn.min_active and left:
            survivors.add(left.pop(0))
        self._active = tuple(sorted(survivors.union(joined)))
        return (tuple(joined), tuple(left))


class _EagerProvider:
    """The materialized-dataset data plane of a workload run.

    Queries are seeded, optionally Zipf-skewed exemplar draws: the hot-set
    *order* is drawn once from the workload identity (a seeded permutation of
    the sorted non-decoy user pool); per-round draws then pick ranks with
    weight ``1 / (rank + 1)^s``, where ``s = 0`` is uniform.  Ground truth is
    :func:`ground_truth_users` over the dataset.  Every draw is kept
    byte-identical to the pre-:class:`StationSource` engine so every golden
    transcript replays unchanged.
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
            "built": int(self._source.built_count),
            "evictions": int(self._source.eviction_count),
        }


#: One query stream of a run: its tenant name ("" for a single-stream run)
#: and the data plane that samples its batches.
_Stream = tuple[str, "_EagerProvider | _SourceProvider"]

#: One tick of the drive loop: its ramp-phase label and virtual arrival time
#: under the open drive, ``("", None)`` for a closed-loop round.
_Tick = tuple[str, "float | None"]


def run_workload(
    spec: WorkloadSpec,
    *,
    drive: str = "simulation",
    network_config: NetworkConfig | None = None,
    transport: str = "sim",
) -> WorkloadResult:
    """Compile ``spec`` into a multi-round facade drive and run it to completion.

    ``transport`` selects the backhaul backend
    (``repro.core.config.TRANSPORT_CHOICES``): ``"sim"`` replays on the
    deterministic simulator, ``"tcp"`` drives the same rounds over real
    localhost sockets with station worker processes.  Fault-free
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
        network_config=network_config,
        transport=transport,
    )
    if cluster_spec.source is not None:
        # Streaming city: the source *is* the dataset boundary — batches are
        # derived on demand and the whole population is never materialized.
        source = cluster_spec.source.build()
        streams: list[_Stream] = [("", _SourceProvider(spec, source))]
        cluster_cm = Cluster(cluster_spec, source=source)
    else:
        dataset = build_dataset(cluster_spec.dataset)
        if spec.tenants:
            # Each tenant samples through a tenant-qualified spec name — its
            # hot-set and per-round query streams derive from labels no other
            # tenant (and no single-stream run) shares.  No tenant samples
            # ``spec.mix``, so it gets no provider.
            streams = []
            for tenant in spec.tenants:
                tenant_spec = spec.with_updates(
                    name=f"{spec.name}#{tenant.name}", mix=tenant.mix
                )
                streams.append((tenant.name, _EagerProvider(tenant_spec, dataset)))
        else:
            streams = [("", _EagerProvider(spec, dataset))]
        cluster_cm = Cluster(cluster_spec, dataset=dataset)
    aggregator = WorkloadAggregator(
        scenario=spec.name,
        seed=spec.seed,
        drive=drive,
        method=spec.method,
        fault_profile=spec.fault_profile,
    )
    if drive == "open":
        ticks: Iterable[_Tick] = _arrivals(spec, aggregator)
    else:
        ticks = repeat(("", None), spec.rounds)
    with cluster_cm as cluster:
        session = cluster.open_session(mode="deltas" if drive == "session" else "rounds")
        churn = _ChurnState(spec, cluster.station_ids)
        _drive(spec, streams, ticks, churn, session, aggregator)
    if not spec.tenants:
        aggregator.set_source_stats(streams[0][1].stats())
    return aggregator.finish()


def _arrivals(spec: WorkloadSpec, aggregator: WorkloadAggregator) -> Iterator[_Tick]:
    """The open drive's ticks: one ``(phase label, arrival time)`` per admission.

    Walks ``offered.ramp`` in order and opens each phase's aggregator window
    on reaching it, silent phases too.  Each phase draws its gaps in order
    from its own RNG stream, a pure function of ``(spec.name, spec.seed,
    phase.label)``: exact ``1/rate`` gaps when ``scheduled``, exponential
    ones at that mean when ``poisson``.  ``max_arrivals``, not ``spec.rounds``,
    caps the run.
    """
    offered = spec.offered
    assert offered is not None
    admitted = 0
    phase_start = 0.0
    for phase in offered.ramp:
        rate = offered.rate_during(phase)
        phase_end = phase_start + float(phase.duration_s)
        aggregator.begin_phase(
            phase.label, rate, float(phase.duration_s), start_s=phase_start
        )
        if rate > 0.0:
            rng = make_rng(spec.seed, "workload-arrivals", spec.name, phase.label)
            mean_gap = 1.0 / rate
            clock = phase_start
            while admitted < offered.max_arrivals:
                if offered.process == "poisson":
                    clock += float(rng.exponential(mean_gap))
                else:
                    clock += mean_gap
                if clock >= phase_end:
                    break
                admitted += 1
                yield phase.label, clock
        phase_start = phase_end
    if admitted == 0:
        raise ValueError(
            "the offered load admitted no arrivals: every ramp phase is "
            "either zero-rate or shorter than one inter-arrival gap"
        )


def _drive(
    spec: WorkloadSpec,
    streams: Sequence[_Stream],
    ticks: Iterable[_Tick],
    churn: _ChurnState,
    session: ClusterSession,
    aggregator: WorkloadAggregator,
) -> None:
    """Serve every stream once per tick through ``session``: the one drive loop.

    Churn and the arrival process advance once per tick.  Each slot is one
    session step and one metrics record, whose running index seeds the
    transport; churn is reported on a tick's first slot only, so per-tenant
    totals partition the run's totals exactly.  One deployment serves every
    stream: with several, each slot rotates the artifact to its own batch,
    which in deltas mode re-ships every station.  Deltas mode publishes every
    active station on the first record, then retires leavers before the
    subscribe (a rotation never re-matches a leaving station) and publishes
    joiners after it.  An open tick queues behind a single server: it starts
    at ``max(arrival, busy_until)`` and its ``latency_s`` is that queueing
    delay plus the round's virtual latency (its service time).
    """
    deltas = session.mode == "deltas"
    batches: dict[str, tuple[list[QueryPattern], frozenset[str]]] = {
        tenant: ([], frozenset()) for tenant, _ in streams
    }
    busy_until = 0.0
    for tick, (phase, arrival_s) in enumerate(ticks):
        joined, left = churn.step(tick)
        refreshed = spec.arrival.refreshes_at(tick)
        for slot, (tenant, provider) in enumerate(streams):
            record = tick * len(streams) + slot
            if refreshed:
                queries = provider.sample(tick, spec.arrival.count_at(tick))
                # Ground truth is a pure function of the batch: recompute
                # only on rotation, not per round.
                batches[tenant] = (queries, provider.truth(queries))
            queries, truth = batches[tenant]
            if deltas and slot == 0:
                for station_id in left:
                    session.retire(station_id)
            if refreshed or len(streams) > 1:
                session.subscribe(queries)
            if deltas and slot == 0:
                for station_id in churn.active if tick == 0 else joined:
                    session.publish(station_id, provider.patterns_at(station_id))
            if deltas:
                station_ids, active_count = None, len(churn.active)
            else:
                station_ids = provider.round_station_ids(tick, churn.active)
                active_count = len(station_ids)
            report = session.step(
                RoundOptions(
                    station_ids=station_ids,
                    net_seed=_round_net_seed(spec, record),
                    k=len(truth),
                )
            )
            provider.observe()
            latency_s, queue_delay_s = report.latency_s, 0.0
            if arrival_s is not None:
                start_s = max(arrival_s, busy_until)
                queue_delay_s = start_s - arrival_s
                busy_until = start_s + report.latency_s
                latency_s = queue_delay_s + report.latency_s
            metrics = evaluate_retrieval(tuple(report.retrieved_user_ids), truth)
            aggregator.add_round(
                RoundMetrics(
                    round_index=record,
                    query_count=len(queries),
                    active_station_count=active_count,
                    joined=joined if slot == 0 else (),
                    left=left if slot == 0 else (),
                    downlink_bytes=report.downlink_bytes,
                    uplink_bytes=report.uplink_bytes,
                    precision=metrics.precision,
                    recall=metrics.recall,
                    latency_s=latency_s,
                    goodput_fraction=report.goodput_fraction,
                    retransmit_count=report.retransmit_count,
                    lost_station_count=report.lost_station_count,
                    batch_refreshed=refreshed,
                    phase=phase,
                    arrival_s=0.0 if arrival_s is None else arrival_s,
                    queue_delay_s=queue_delay_s,
                    tenant=tenant,
                ),
                report.transcript,
            )
