"""The ``Cluster`` facade: one typed, handle-based API for the whole system.

This module drives the round engine: the data center encodes the query
batch, :func:`repro.topology.router.run_two_tier_round` broadcasts the
artifact to every participating base station (downlink), runs their matching
phase as one in-process call and carries their reports back (uplink) over
the deployment's tier map — the star is its trunkless one-level case — and
the center aggregates them into the ranked top-K.  All
traffic moves as *encoded wire bytes* exposed to the round's seeded fault
plan, so a surviving round is always exactly correct and byte counts are
real encoded lengths.

Around that engine the :class:`Cluster` presents the system's one public
surface:

* ``publish(station_id, patterns)`` / ``retire(station_id)`` — station-side
  data registration (the matcher cache re-primes only the changed station);
* ``subscribe(queries)`` — query-batch registration, incrementally re-encoded
  when a continuous session is open;
* ``round(...)`` — one full wire round, returning a typed
  :class:`~repro.cluster.report.RoundReport`; the subscribed batch is encoded
  on the first round and its artifact reused while the subscription holds;
* ``open_session(mode)`` — a :class:`ClusterSession` handle that unifies the
  two drive styles (full per-round wire rounds vs continuous delta shipping)
  behind one ``step()`` verb;
* ``snapshot()`` / ``restore()`` — freeze and reinstall the cluster's mutable
  state for warm starts and failover experiments;
* ``transcript_digest()`` — the cluster-level replay token: the sha256 of
  every recorded round's transcript, framed exactly like
  :meth:`repro.workloads.result.WorkloadResult.transcript_bytes`;
* ``drive(protocol, queries, ...)`` — the low-level escape hatch that runs an
  arbitrary protocol through one round (what the method-comparison harness
  uses).

The fault plan and network seed never change what a *surviving* round
computes, only what it costs.
"""

from __future__ import annotations

import hashlib
import time
from typing import TYPE_CHECKING, Callable, Sequence

from repro.cluster.report import ClusterSnapshot, RoundReport
from repro.cluster.spec import ClusterSpec, TransportSpec
from repro.core.exceptions import ConfigurationError
from repro.core.protocol import MatchingProtocol, StationRanking
from repro.core.streaming import ContinuousMatchingSession
from repro.datagen.source import DatasetStationSource, StationSource
from repro.datagen.workload import build_dataset
from repro.distributed.basestation import BaseStationNode
from repro.distributed.datacenter import DataCenterNode
from repro.distributed.executor import ShardedStationRunner
from repro.distributed.faults import FaultPlan, resolve_fault_plan
from repro.distributed.metrics import CostReport
from repro.distributed.network import NetworkConfig, SimulatedNetwork
from repro.distributed.transport.base import Transport
from repro.distributed.simulator import (
    RoundOptions,
    SimulationOutcome,
    _artifact_size_bytes,
)
from repro.timeseries.pattern import PatternSet
from repro.timeseries.query import QueryPattern
from repro.topology.router import (
    REGION_SEED_LABEL,
    TRUNK_SEED_LABEL,
    run_two_tier_round,
    ship_two_tier_deltas,
)
from repro.topology.spec import TopologySpec
from repro.topology.tiers import build_tier_map
from repro.utils.rng import derive_seed
from repro.utils.validation import require_non_empty
from repro.wire import object_revision

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datagen.workload import DistributedDataset

#: Drive styles of :meth:`Cluster.open_session`.
SESSION_MODES = ("rounds", "deltas")


class ClusterStateError(RuntimeError):
    """A facade verb was called in a state that cannot serve it."""


class Cluster:
    """One deployed distributed matching system behind a typed facade.

    Build one from a validated :class:`~repro.cluster.spec.ClusterSpec`
    (``spec.dataset`` describes a synthetic city to build eagerly,
    ``spec.source`` a :class:`~repro.datagen.source.SourceSpec` city), or
    adopt an existing :class:`~repro.datagen.workload.DistributedDataset`
    (``dataset=``) or a live :class:`~repro.datagen.source.StationSource`
    (``source=``) — the spec's remaining sub-specs still govern protocol,
    transport and faults.  A source with a resident cap
    (``resident_cap`` not ``None``, e.g.
    :class:`~repro.datagen.streaming.StreamingStationSource`) is served
    *lazily*: station batches are pulled on demand as rounds touch them and
    released back to the source's LRU afterwards, so the resident set stays
    bounded no matter how many users the source declares.  The cluster is a
    context manager; leaving the ``with`` block shuts down any TCP
    transport's workers and sockets.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        *,
        dataset: "DistributedDataset | None" = None,
        source: StationSource | None = None,
    ) -> None:
        if not isinstance(spec, ClusterSpec):
            raise ConfigurationError(
                f"spec must be a ClusterSpec, got {type(spec).__name__}"
            )
        if dataset is not None and source is not None:
            raise ConfigurationError(
                "pass at most one of dataset= and source=; they both declare "
                "the deployment's data"
            )
        if source is None:
            if dataset is not None:
                source = DatasetStationSource(dataset)
            elif spec.source is not None:
                source = spec.source.build()
            elif spec.dataset is not None:
                source = DatasetStationSource(build_dataset(spec.dataset))
            else:
                raise ConfigurationError(
                    "the spec declares no city (dataset and source are both "
                    "None) and none was passed; one of them must describe "
                    "the deployment's data"
                )
        self._spec: ClusterSpec | None = spec
        self._protocol: MatchingProtocol | None = spec.protocol.build()
        self._setup(
            source,
            transport_spec=spec.transport,
            fault_plan=spec.faults.profile,
            net_seed=spec.faults.net_seed,
            allow_partial=spec.faults.allow_partial,
            topology=spec.topology,
        )

    @classmethod
    def adopt(
        cls,
        dataset: "DistributedDataset | None" = None,
        network_config: NetworkConfig | None = None,
        fault_plan: FaultPlan | str = "none",
        net_seed: int = 0,
        allow_partial: bool = False,
        *,
        source: StationSource | None = None,
    ) -> "Cluster":
        """Wrap a pre-built dataset (or station source) without a spec.

        The knobs mean what their :class:`~repro.cluster.spec.FaultSpec`
        namesakes mean, except that ``fault_plan`` may also be a custom
        :class:`~repro.distributed.faults.FaultPlan`; a bad profile fails
        here.  ``Cluster.adopt(source=...)`` adopts a live
        :class:`~repro.datagen.source.StationSource` instead — a capped
        source is served lazily, batch by batch, exactly as under a
        spec-built cluster.  No protocol is bound, so only :meth:`drive` is
        available (the typed verbs need a spec); this is what the
        method-comparison harness drives its per-method protocols through.
        """
        if (dataset is None) == (source is None):
            raise ConfigurationError(
                "adopt() needs exactly one of dataset= or source="
            )
        cluster = object.__new__(cls)
        cluster._spec = None
        cluster._protocol = None
        cluster._setup(
            source if source is not None else DatasetStationSource(dataset),
            transport_spec=TransportSpec.from_network_config(network_config),
            fault_plan=fault_plan,
            net_seed=net_seed,
            allow_partial=allow_partial,
        )
        return cluster

    def _setup(
        self,
        source: StationSource,
        *,
        transport_spec: TransportSpec,
        fault_plan: FaultPlan | str,
        net_seed: int,
        allow_partial: bool,
        topology: TopologySpec | None = None,
    ) -> None:
        if not isinstance(source, StationSource):
            raise ConfigurationError(
                f"source must implement StationSource, got {type(source).__name__}"
            )
        self._source = source
        #: A capped source is served lazily: nodes materialize per round and
        #: are released afterwards, keeping residency at the source's LRU.
        self._lazy = source.resident_cap is not None
        self._station_order: tuple[str, ...] = tuple(source.station_ids)
        self._station_index = {
            station_id: index for index, station_id in enumerate(self._station_order)
        }
        #: publish() of a new station inserts at the dict end; readers that
        #: observe order restore dataset order first (see _in_dataset_order).
        self._unordered = False
        #: Lazy mode: stations withdrawn via retire() and stations whose
        #: batches were explicitly published (pinned across rounds).
        self._withdrawn: set[str] = set()
        self._pinned: set[str] = set()
        self._last_participant_count = 0
        self._transport_spec = transport_spec
        self._network_config = transport_spec.network_config()
        self._tcp_manager: "TcpTransportManager | None" = None
        self._runner = ShardedStationRunner()
        self._fault_plan = resolve_fault_plan(fault_plan)
        self._net_seed = net_seed
        self._allow_partial = bool(allow_partial)
        self._center = DataCenterNode()
        self._patterns: dict[str, PatternSet] = {}
        if not self._lazy:
            for station_id in self._station_order:
                patterns = source.local_patterns_at(station_id)
                if len(patterns) > 0:
                    self._patterns[station_id] = patterns
        self._nodes: dict[str, BaseStationNode] = {
            station_id: BaseStationNode(station_id, patterns)
            for station_id, patterns in self._patterns.items()
        }
        self._queries: tuple[QueryPattern, ...] = ()
        #: The subscribed batch's artifact and the revision it was encoded at
        #: (see _subscribed_artifact); None until a round encodes it.
        self._held_artifact: tuple[object | None, object] | None = None
        self._round_index = 0
        #: The running sha256 of every recorded round's framed transcript.
        self._transcript_hash = hashlib.sha256()
        self._session: "ClusterSession | None" = None
        self._epoch = 0
        # The tier map is a pure function of topology + station order, so it
        # is built once here and never snapshotted: restore() keeps it.  No
        # topology is the star, the trunkless one-level map.
        self._tier_map = build_tier_map(self._station_order, topology or TopologySpec())

    # -- introspection ---------------------------------------------------------

    @property
    def spec(self) -> ClusterSpec | None:
        """The validated deployment spec (``None`` for adopted legacy clusters)."""
        return self._spec

    @property
    def name(self) -> str:
        """The deployment name."""
        return self._spec.name if self._spec is not None else "adopted"

    @property
    def source(self) -> StationSource:
        """The station source the cluster serves (always present)."""
        return self._source

    @property
    def dataset(self) -> "DistributedDataset":
        """The eager dataset the cluster serves.

        Only materialized-dataset clusters have one; a lazily served
        (capped-source) cluster never holds the whole city, so asking for it
        is a :class:`ClusterStateError` — use :attr:`source` instead.
        """
        dataset = getattr(self._source, "dataset", None)
        if dataset is None:
            raise ClusterStateError(
                "this cluster is backed by a streaming StationSource and "
                "never materializes the whole dataset; use .source"
            )
        return dataset

    @property
    def stations(self) -> list[BaseStationNode]:
        """The currently materialized base-station nodes.

        Eager clusters: every pattern-bearing station.  Lazy clusters: only
        the pinned (explicitly published) stations between rounds.
        """
        self._in_dataset_order()
        return list(self._nodes.values())

    @property
    def station_ids(self) -> tuple[str, ...]:
        """Ids of the servable stations, in dataset (source) order.

        Eager clusters list the pattern-bearing stations; lazy clusters list
        every declared station that has not been withdrawn (their batches
        materialize on demand).
        """
        if self._lazy:
            return tuple(
                sid for sid in self._station_order if sid not in self._withdrawn
            )
        self._in_dataset_order()
        return tuple(self._nodes)

    @property
    def center(self) -> DataCenterNode:
        """The data-center node."""
        return self._center

    @property
    def protocol(self) -> MatchingProtocol:
        """The matching protocol this deployment runs."""
        return self._require_protocol()

    @property
    def queries(self) -> tuple[QueryPattern, ...]:
        """The currently subscribed query batch (empty before ``subscribe``)."""
        return self._queries

    @property
    def round_index(self) -> int:
        """Number of facade-recorded rounds completed so far."""
        return self._round_index

    def _require_protocol(self) -> MatchingProtocol:
        if self._protocol is None:
            raise ClusterStateError(
                "this cluster adopted a dataset without a ClusterSpec; only "
                "drive(protocol, ...) is available"
            )
        return self._protocol

    # -- registration verbs ----------------------------------------------------

    def publish(self, station_id: str, patterns: PatternSet) -> int:
        """Register (or replace) one station's local pattern data.

        Returns the number of patterns the station now stores.  The next
        round re-primes only this station's matcher; while a delta session is
        open the station is additionally re-matched incrementally and marked
        dirty for the next shipment.
        """
        if not isinstance(patterns, PatternSet):
            raise TypeError(
                f"patterns must be a PatternSet, got {type(patterns).__name__}"
            )
        key = self._known_station(station_id)
        # The session hook runs first: if it refuses (e.g. a delta session
        # with no subscription yet), the cluster state must stay untouched so
        # cluster and session views never diverge.
        if self._session is not None:
            self._session._on_publish(key, patterns)
        # Only the published station's node is rebuilt (its inbox state is
        # per-round anyway, and the protocol-side matcher cache re-primes on
        # the new PatternSet identity).  A new key lands at the dict end;
        # dataset order is restored only when something reads the order.
        if key not in self._patterns:
            self._unordered = True
        self._patterns[key] = patterns
        self._nodes[key] = BaseStationNode(key, patterns)
        if self._lazy:
            # An explicit publish overrides the source: pin the batch so
            # per-round release keeps it, and un-withdraw the station.
            self._pinned.add(key)
            self._withdrawn.discard(key)
        return len(patterns)

    def retire(self, station_id: str) -> None:
        """Withdraw a station's published data (the station went offline).

        Retiring a dataset station that holds no data is a no-op; an id
        outside the dataset is rejected like :meth:`publish` rejects it.
        """
        key = self._known_station(station_id)
        self._patterns.pop(key, None)
        self._nodes.pop(key, None)
        if self._lazy:
            # Mark withdrawn so the lazy path stops re-materializing the
            # station from the source, and drop its cached batch.
            self._pinned.discard(key)
            self._withdrawn.add(key)
            self._source.retire(key)
        if self._session is not None:
            self._session._on_retire(key)

    def _known_station(self, station_id: str) -> str:
        key = str(station_id)
        if key not in self._station_index:
            raise ValueError(
                f"unknown station id {key!r}; expected one of the dataset's stations"
            )
        return key

    def _in_dataset_order(self) -> None:
        """Re-sort the station dicts into dataset order if an insert broke it."""
        if self._unordered:
            position = self._station_index.__getitem__
            self._patterns = {
                sid: self._patterns[sid] for sid in sorted(self._patterns, key=position)
            }
            self._nodes = {sid: self._nodes[sid] for sid in sorted(self._nodes, key=position)}
            self._unordered = False

    def subscribe(self, queries: Sequence[QueryPattern]) -> None:
        """Register the query batch the deployment answers.

        Re-subscribing rotates the batch: the next :meth:`round` encodes it
        afresh, and an open delta session re-encodes the artifact once and
        incrementally re-matches every station it has seen (exactly
        :meth:`ContinuousMatchingSession.replace_queries`).
        """
        require_non_empty(queries, "queries")
        self._queries = tuple(queries)
        self._held_artifact = None
        if self._session is not None:
            self._session._on_subscribe(self._queries)

    # -- the round engine ------------------------------------------------------

    def _build_transport(
        self,
        plan: FaultPlan,
        net_seed: int,
        *,
        force_sim: bool = False,
    ) -> Transport:
        """One transport on the deployment's backend (``force_sim`` overrides).

        The backend is whatever the deployment's :class:`TransportSpec`
        selected: the deterministic simulator, or real localhost sockets with
        station worker processes (whose long-lived manager is created lazily
        on the first round and torn down by :meth:`close`).  The trunk hop of
        a two-tier deployment always rides the simulator — aggregators are
        co-resident with the center, a sanctioned divergence documented in
        ``docs/topology.md`` — which is what ``force_sim`` expresses.
        """
        if self._transport_spec.transport == "tcp" and not force_sim:
            if self._tcp_manager is None:
                # Imported lazily: the TCP stack (loop thread, servers, worker
                # subprocess machinery) only loads for deployments that use it.
                from repro.distributed.transport.tcp import TcpTransportManager

                self._tcp_manager = TcpTransportManager(
                    self._network_config,
                    connect_timeout_s=self._transport_spec.tcp_connect_timeout_s,
                )
            return self._tcp_manager.create_transport(
                fault_plan=plan,
                seed=net_seed,
                allow_partial=self._allow_partial,
            )
        return SimulatedNetwork(
            self._network_config,
            fault_plan=plan,
            seed=net_seed,
            allow_partial=self._allow_partial,
        )

    def _tier_transports(
        self, net_seed: int | None
    ) -> tuple[Transport | None, dict[str, Transport], int]:
        """Fresh per-round transports for every tier of the tier map.

        ``net_seed`` is the round's override (``None`` = the deployment's
        seed).  The star's one hop runs on the round's own net seed; in a
        tree each tier derives its own seed from it through a stable label,
        so a hierarchical round replays exactly like a flat one.  A region
        with a degraded-profile override resolves its own fault plan, every
        other tier inherits the deployment's.  The trunk is ``None`` when the
        map has none.  Returns the transports and the round's net seed.
        """
        plan = self._fault_plan
        if net_seed is None:
            net_seed = self._net_seed
        trunk = None
        if self._tier_map.has_trunk:
            trunk = self._build_transport(
                plan, derive_seed(net_seed, TRUNK_SEED_LABEL), force_sim=True
            )
        regional: dict[str, Transport] = {}
        for region in self._tier_map.regions:
            region_plan = (
                resolve_fault_plan(region.fault_profile)
                if region.fault_profile is not None
                else plan
            )
            regional[region.name] = self._build_transport(
                region_plan,
                (
                    net_seed
                    if trunk is None
                    else derive_seed(net_seed, REGION_SEED_LABEL, region.name)
                ),
            )
        return trunk, regional, net_seed

    def _participants(self, station_ids: Sequence[str] | None) -> list[BaseStationNode]:
        """Resolve one round's participating stations (``None`` = all of them).

        ``station_ids`` is how a multi-round driver models churn: a station
        absent from the round's set neither receives the artifact nor uploads
        a report, exactly like a cell that joined the network after the round
        or left before it.  Ids must name dataset stations; ids of stations
        that store no patterns are tolerated (they never participate anyway).

        Lazy (capped-source) clusters materialize the wanted stations' nodes
        here, on demand, in source order — this is where a round *publishes*
        the batches it is about to touch.
        """
        self._in_dataset_order()
        if station_ids is None:
            if not self._lazy:
                return list(self._nodes.values())
            wanted = None
        else:
            wanted = {str(station_id) for station_id in station_ids}
            unknown = {sid for sid in wanted if sid not in self._station_index}
            if unknown:
                raise ValueError(
                    f"unknown station ids {sorted(unknown)!r}; "
                    f"expected a subset of the dataset's stations"
                )
            if not self._lazy:
                return [node for sid, node in self._nodes.items() if sid in wanted]
        # A subset walks only itself, in dataset order; the full census
        # walks every station.
        order = (
            self._station_order
            if wanted is None
            else sorted(wanted, key=self._station_index.__getitem__)
        )
        nodes: list[BaseStationNode] = []
        for sid in order:
            if sid in self._withdrawn:
                continue
            node = self._activate(sid)
            if node is not None:
                nodes.append(node)
        return nodes

    def _activate(self, station_id: str) -> BaseStationNode | None:
        """Materialize one station's node from the source (lazy mode only)."""
        node = self._nodes.get(station_id)
        if node is not None:
            return node
        patterns = self._source.local_patterns_at(station_id)
        if len(patterns) == 0:
            return None
        self._patterns[station_id] = patterns
        node = BaseStationNode(station_id, patterns)
        self._nodes[station_id] = node
        return node

    def _release_transient(self) -> None:
        """Drop the nodes a lazy round materialized, keeping pinned stations.

        The raw batches stay cached in the source's LRU (bounded at its
        resident cap); only the facade-side node/pattern handles are
        released, so between rounds residency is the source's business.
        """
        if not self._lazy:
            return
        for sid in [sid for sid in self._nodes if sid not in self._pinned]:
            self._nodes.pop(sid, None)
            self._patterns.pop(sid, None)

    def drive(
        self,
        protocol: MatchingProtocol,
        queries: Sequence[QueryPattern],
        k: int | None = None,
        *,
        options: RoundOptions | None = None,
    ) -> SimulationOutcome:
        """Execute one full matching round of an arbitrary protocol.

        This is the low-level engine verb: it encodes ``queries`` on every
        call, records no transcript and accepts any protocol — what a
        method-comparison sweep needs (fig4b times that encode).  Facade
        users normally call :meth:`round` instead.  Driving the cluster's own
        protocol drops the artifact :meth:`round` holds, because a protocol
        may keep what it last encoded (``NaiveProtocol`` ranks against that
        batch); the next round encodes the subscription again.  The cutoff
        travels either as ``k`` or as ``options.k`` (not both).  Raises
        :class:`~repro.distributed.events.RoundTimeoutError` when a transfer
        exhausts its retransmission budget and the deployment does not allow
        partial rounds.
        """
        options = RoundOptions.merge(options, k=k)
        if protocol is self._protocol:
            self._held_artifact = None
        return self._run(protocol, options, lambda: protocol.encode(queries))

    def _subscribed_artifact(self) -> object | None:
        """The subscribed batch's artifact, encoded once and then reused.

        Rounds on an unchanged subscription send the same artifact object, so
        the codec's identity cache serves its wire bytes too.  The held
        artifact is reused only while its revision is the one it was encoded
        at; :meth:`subscribe`, :meth:`restore` and a :meth:`drive` of the
        cluster's own protocol drop it.
        """
        held = self._held_artifact
        if held is not None and object_revision(held[0]) == held[1]:
            return held[0]
        artifact = self._require_protocol().encode(self._queries)
        self._held_artifact = (artifact, object_revision(artifact))
        return artifact

    def _run(
        self,
        protocol: MatchingProtocol,
        options: RoundOptions,
        encode: "Callable[[], object | None]",
    ) -> SimulationOutcome:
        """One wire round of ``protocol`` on the artifact ``encode()`` returns."""
        participants = self._participants(options.station_ids)
        self._last_participant_count = len(participants)
        trunk, regional, net_seed = self._tier_transports(options.net_seed)
        self._center.clear_inbox()
        for station in self._nodes.values():
            station.clear_inbox()

        # Phase 1: encoding at the data center.  The router then runs the
        # rest of the round over the tier map: dissemination (every station
        # decodes the artifact from the wire bytes it received), matching,
        # and the uplink to the center.
        encode_start = time.perf_counter()
        artifact = encode()
        encode_time = time.perf_counter() - encode_start

        routed = run_two_tier_round(
            protocol=protocol,
            center=self._center,
            tier_map=self._tier_map,
            participants=participants,
            artifact=artifact,
            trunk_transport=trunk,
            regional_transports=regional,
            runner=self._runner,
        )

        # Phase 3: aggregation over the reports the center actually decoded,
        # in canonical order, so delivery reordering never changes the ranking.
        aggregate_start = time.perf_counter()
        results = protocol.aggregate(routed.all_reports, options.k)
        aggregate_time = time.perf_counter() - aggregate_start

        artifact_bytes = _artifact_size_bytes(artifact)
        costs = CostReport(
            method=protocol.name,
            downlink_bytes=routed.downlink_bytes,
            uplink_bytes=routed.uplink_bytes,
            message_count=routed.message_count,
            # The center keeps the artifact it built plus every payload that
            # landed at it; every station keeps the artifact it received on
            # top of its raw data.
            storage_center_bytes=artifact_bytes + routed.center_payload_bytes,
            storage_station_bytes=artifact_bytes * len(routed.active_stations),
            encode_time_s=encode_time,
            station_time_s=routed.station_time_s,
            aggregate_time_s=aggregate_time,
            transmission_time_s=routed.transmission_time_s,
            report_count=len(routed.all_reports),
            fault_profile=self._fault_plan.name,
            net_seed=net_seed,
            retransmit_count=routed.retransmit_count,
            dropped_frame_count=routed.dropped_frame_count,
            duplicate_frame_count=routed.duplicate_frame_count,
            corrupt_frame_count=routed.corrupt_frame_count,
            lost_station_count=routed.lost_station_count,
            goodput_fraction=routed.goodput_fraction,
            tiers=routed.tier_costs,
        )
        outcome = SimulationOutcome(
            method=protocol.name,
            results=results,
            costs=costs,
            transcript=routed.transcript,
        )
        # A lazy round is generate → encode → match → release: transient
        # nodes go back to the source's LRU before the next round's touch set.
        self._release_transient()
        return outcome

    # -- facade rounds ---------------------------------------------------------

    def round(
        self,
        options: RoundOptions | None = None,
        *,
        station_ids: Sequence[str] | None = None,
        net_seed: int | None = None,
        k: int | None = None,
    ) -> RoundReport:
        """Run one full wire round of the deployment's protocol and record it.

        Per-round overrides travel either as one
        :class:`~repro.distributed.simulator.RoundOptions` or as loose
        keywords (not both).  Requires a subscribed query batch.
        """
        merged = RoundOptions.merge(options, station_ids=station_ids, net_seed=net_seed, k=k)
        protocol = self._require_protocol()
        if not self._queries:
            raise ClusterStateError("subscribe() a query batch before running a round")
        outcome = self._run(protocol, merged, self._subscribed_artifact)
        costs = outcome.costs
        report = RoundReport(
            round_index=self._round_index,
            mode="round",
            results=outcome.results,
            query_count=len(self._queries),
            # Captured by drive(): recomputing here would re-materialize a
            # lazy round's released stations just to count them.
            active_station_count=self._last_participant_count,
            downlink_bytes=costs.downlink_bytes,
            uplink_bytes=costs.uplink_bytes,
            latency_s=costs.transmission_time_s,
            goodput_fraction=costs.goodput_fraction,
            retransmit_count=costs.retransmit_count,
            lost_station_count=costs.lost_station_count,
            transcript=outcome.transcript,
            costs=costs,
        )
        self._record(report.transcript_bytes())
        return report

    def _record(self, transcript: bytes) -> None:
        # The replay token is a running digest, so a cluster keeps nothing
        # per round: sha256 fed round by round equals sha256 of the rounds'
        # concatenation.
        self._transcript_hash.update(b"== round %d ==\n" % self._round_index)
        self._transcript_hash.update(transcript)
        self._transcript_hash.update(b"\n")
        self._round_index += 1

    def transcript_digest(self) -> str:
        """The cluster-level replay token, as a sha256 hex digest.

        The digest of every facade-recorded round's canonical transcript
        under a ``== round N ==`` header — the same framing as
        :meth:`repro.workloads.result.WorkloadResult.transcript_bytes`, so a
        scenario driven by hand through the facade compares against an
        engine-driven run through ``hashlib.sha256(result.transcript_bytes())``.
        """
        return self._transcript_hash.hexdigest()

    # -- sessions --------------------------------------------------------------

    def open_session(self, mode: str = "rounds") -> "ClusterSession":
        """Open the one drive handle, in either drive style.

        ``mode="rounds"`` replays every :meth:`ClusterSession.step` as a full
        wire round; ``mode="deltas"`` keeps one continuous matching session
        alive and ships only the dirty stations' deltas per step — the
        steady-state serving model.  Only one session may be open at a time.
        """
        if mode not in SESSION_MODES:
            raise ConfigurationError(
                f"session mode must be one of {SESSION_MODES}, got {mode!r}"
            )
        if self._session is not None:
            raise ClusterStateError(
                "a session is already open on this cluster; close it first"
            )
        self._require_protocol()
        handle = ClusterSession(self, mode, self._epoch)
        self._session = handle
        return handle

    # -- snapshot / restore ----------------------------------------------------

    def snapshot(self) -> ClusterSnapshot:
        """Freeze the cluster's restorable state.

        The snapshot captures the subscription, every station's published
        patterns, the round counter and the transcript digest.  For a lazy
        (capped-source) cluster only the *pinned* (explicitly published)
        stations' patterns are captured, plus the withdrawn set — transient
        batches are a pure function of the source and re-derive on demand, so
        the snapshot stays small no matter how large the declared city is.
        An open delta session holds incremental matching state the snapshot
        cannot represent, so snapshotting is refused while one is open.
        """
        if self._session is not None and self._session.mode == "deltas":
            raise ClusterStateError(
                "cannot snapshot while a delta session is open; close it first"
            )
        self._in_dataset_order()
        patterns = tuple(
            (sid, pattern_set)
            for sid, pattern_set in self._patterns.items()
            if not self._lazy or sid in self._pinned
        )
        return ClusterSnapshot(
            queries=self._queries,
            patterns=patterns,
            round_index=self._round_index,
            transcript_hash=self._transcript_hash.copy(),
            withdrawn=tuple(sorted(self._withdrawn)),
        )

    def restore(self, snapshot: ClusterSnapshot) -> None:
        """Reinstall a snapshot, invalidating any open session handle.

        After restoring, the cluster continues exactly as if the intervening
        mutations never happened: the same subscription, published patterns
        and round counter, so subsequent rounds extend the restored
        transcript digest exactly as they would have extended the original.
        """
        if not isinstance(snapshot, ClusterSnapshot):
            raise TypeError(
                f"snapshot must be a ClusterSnapshot, got {type(snapshot).__name__}"
            )
        self._epoch += 1
        self._session = None
        self._queries = snapshot.queries
        self._held_artifact = None
        self._patterns = dict(snapshot.patterns)
        self._nodes = {
            station_id: BaseStationNode(station_id, patterns)
            for station_id, patterns in self._patterns.items()
        }
        self._unordered = True
        if self._lazy:
            self._pinned = set(self._patterns)
            self._withdrawn = {
                sid for sid in snapshot.withdrawn if sid in self._station_index
            }
        self._round_index = snapshot.round_index
        self._transcript_hash = snapshot.transcript_hash.copy()

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Shut down TCP workers and sockets, detach any open session handle."""
        if self._tcp_manager is not None:
            self._tcp_manager.shutdown()
            self._tcp_manager = None
        self._epoch += 1
        self._session = None

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Cluster(name={self.name!r}, stations={len(self._nodes)}, "
            f"queries={len(self._queries)}, rounds={self._round_index})"
        )


class ClusterSession:
    """The one drive handle over an open :class:`Cluster`.

    Both drive styles share the verbs: ``publish`` / ``retire`` mutate the
    station side, ``subscribe`` rotates the query batch, ``step`` advances
    one round and returns a typed :class:`~repro.cluster.report.RoundReport`.
    In ``rounds`` mode each step is a full wire round (churn is expressed per
    step through ``RoundOptions.station_ids``); in ``deltas`` mode one
    :class:`~repro.core.streaming.ContinuousMatchingSession` spans all steps
    and only the dirty stations' report deltas ship through the seeded
    transport, while the center keeps serving the last state each station
    *delivered* — an undelivered delta leaves the previous ranking in place,
    exactly like a real deployment.
    """

    def __init__(self, cluster: Cluster, mode: str, epoch: int) -> None:
        self._cluster = cluster
        self._mode = mode
        self._epoch = epoch
        # Delta-mode state: the continuous session materializes on the first
        # publish (it needs the subscription), together with the center-side
        # ranking over the last delta each station delivered.
        self._inner: ContinuousMatchingSession | None = None
        self._ranking: StationRanking | None = None
        self._center = DataCenterNode()
        self._artifact_bytes = 0
        self._refreshed = bool(cluster.queries)
        self._newly_published: set[str] = set()

    @property
    def mode(self) -> str:
        """The drive style of this handle (``"rounds"`` or ``"deltas"``)."""
        return self._mode

    @property
    def active_station_ids(self) -> tuple[str, ...]:
        """Stations currently participating in the session."""
        self._check_live()
        if self._mode == "deltas" and self._inner is not None:
            return tuple(self._inner.station_ids)
        return self._cluster.station_ids

    @property
    def dirty_station_ids(self) -> tuple[str, ...]:
        """Delta mode: stations changed since the last shipped step."""
        self._check_live()
        if self._inner is None:
            return ()
        return self._inner.dirty_station_ids

    def _check_live(self) -> None:
        if (
            self._cluster._session is not self
            or self._epoch != self._cluster._epoch
        ):
            raise ClusterStateError(
                "this session handle was invalidated (the cluster was "
                "restored, closed, or opened a new session)"
            )

    # -- shared verbs ----------------------------------------------------------

    def publish(self, station_id: str, patterns: PatternSet) -> int:
        """Register (or replace) one station's data within the session."""
        self._check_live()
        return self._cluster.publish(station_id, patterns)

    def retire(self, station_id: str) -> None:
        """Withdraw a station from the session."""
        self._check_live()
        self._cluster.retire(station_id)

    def subscribe(self, queries: Sequence[QueryPattern]) -> None:
        """Rotate the session's query batch (incremental re-encode in deltas mode)."""
        self._check_live()
        self._cluster.subscribe(queries)

    def step(
        self,
        options: RoundOptions | None = None,
        *,
        station_ids: Sequence[str] | None = None,
        net_seed: int | None = None,
        k: int | None = None,
    ) -> RoundReport:
        """Advance the session by one round and return its typed report."""
        self._check_live()
        merged = RoundOptions.merge(options, station_ids=station_ids, net_seed=net_seed, k=k)
        if self._mode == "rounds":
            return self._cluster.round(merged)
        return self._step_deltas(merged)

    def close(self) -> None:
        """Detach the handle from the cluster (idempotent)."""
        if self._cluster._session is self:
            self._cluster._session = None

    def __enter__(self) -> "ClusterSession":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()

    # -- delta internals -------------------------------------------------------

    def _ensure_inner(self) -> ContinuousMatchingSession:
        if self._inner is None:
            queries = self._cluster.queries
            if not queries:
                raise ClusterStateError(
                    "subscribe() a query batch before publishing to a delta session"
                )
            protocol = self._cluster._require_protocol()
            self._inner = ContinuousMatchingSession(protocol, queries)
            self._ranking = protocol.open_ranking()
            self._artifact_bytes = _artifact_size_bytes(self._inner.artifact)
        return self._inner

    def _on_publish(self, station_id: str, patterns: PatternSet) -> None:
        if self._mode != "deltas":
            return
        inner = self._ensure_inner()
        if station_id not in inner:
            self._newly_published.add(station_id)
        inner.update_station(station_id, patterns)

    def _on_retire(self, station_id: str) -> None:
        if self._mode != "deltas" or self._inner is None:
            return
        self._inner.remove_station(station_id)
        self._ranking.remove(station_id)
        self._newly_published.discard(station_id)

    def _on_subscribe(self, queries: tuple[QueryPattern, ...]) -> None:
        if self._mode != "deltas":
            return
        self._refreshed = True
        if self._inner is not None:
            self._inner.replace_queries(queries)
            self._artifact_bytes = _artifact_size_bytes(self._inner.artifact)

    def _step_deltas(self, options: RoundOptions) -> RoundReport:
        """One delta step: ship the dirty stations' deltas up the tier map.

        A station is settled — marked clean and its reports served by the
        center's ranking — only when its delta reached the center; a delta
        that did not stays dirty and re-ships next step.  A strict-network
        timeout settles what did arrive first, then raises.
        """
        if options.station_ids is not None:
            raise ValueError(
                "station_ids does not apply to a delta session; express churn "
                "through publish()/retire()"
            )
        inner = self._ensure_inner()
        cluster = self._cluster
        # Downlink is charged when the artifact changed (rotation: every
        # active station re-downloads it) and for stations that joined since
        # the last step (they receive the current artifact before matching).
        affected = inner.station_ids if self._refreshed else self._newly_published
        downlink_bytes = self._artifact_bytes * cluster._tier_map.artifact_copies(
            affected
        )

        trunk, regional, _net_seed = cluster._tier_transports(options.net_seed)
        shipped = ship_two_tier_deltas(
            center=self._center,
            tier_map=cluster._tier_map,
            deltas={sid: inner.reports_for(sid) for sid in inner.dirty_station_ids},
            trunk_transport=trunk,
            regional_transports=regional,
        )
        inner.mark_delivered(shipped.payload_bytes_by_station)
        for station_id, reports in shipped.reports_by_station.items():
            self._ranking.replace(station_id, reports)
        if shipped.error is not None:
            raise shipped.error
        report = RoundReport(
            round_index=cluster._round_index,
            mode="delta",
            results=self._ranking.results(options.k),
            query_count=len(cluster.queries),
            active_station_count=inner.station_count,
            downlink_bytes=downlink_bytes,
            uplink_bytes=shipped.uplink_bytes,
            latency_s=shipped.transmission_time_s,
            goodput_fraction=shipped.goodput_fraction,
            retransmit_count=shipped.retransmit_count,
            lost_station_count=len(inner.dirty_station_ids),
            transcript=shipped.transcript,
            delivered_station_ids=shipped.delivered_station_ids,
        )
        self._refreshed = False
        self._newly_published.clear()
        cluster._record(report.transcript_bytes())
        return report

    def __repr__(self) -> str:
        return (
            f"ClusterSession(mode={self._mode!r}, "
            f"cluster={self._cluster.name!r})"
        )
