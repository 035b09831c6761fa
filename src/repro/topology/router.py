"""The two-tier round engine: center ⇄ regional aggregators ⇄ stations.

:func:`run_two_tier_round` drives one hierarchical matching round over the
same :class:`~repro.distributed.transport.base.Transport` contract the flat
engine uses — one trunk transport for the aggregator↔center hop and one
transport per region for the aggregator↔stations hop — without changing the
frame protocol: every hop moves ordinary
:class:`~repro.distributed.messages.Message` envelopes, so both backends
(deterministic simulator and real TCP sockets) carry the regional tier
unmodified.

Phase order (the reverse tree of the flat round's two phases)::

    trunk downlink   center      → aggregators   (artifact, once per region)
    regional downlink aggregator → stations      (artifact fan-out)
    matching          sharded station runner, global station order
    regional uplink   stations   → aggregator    (per-station reports)
    trunk uplink      aggregator → center        (one deduplicated summary)

Regions are contiguous slices of the station order and every inbox is
consumed in canonical station/region order, so a fault-free two-tier round
feeds the aggregation phase exactly the flat round's report sequence — the
ranking-parity invariant the test suite pins across all four protocols.

Latency composes as ``trunk_down + max(regional_down) + max(regional_up) +
trunk_up``: the regional subtrees run in parallel (each region has its own
ingress link), while the trunk serializes at the center's ingress — which is
also why ``center_ingress_bytes`` (the trunk uplink) is the headline
quantity the hierarchy exists to shrink.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.distributed.messages import Message, MessageKind
from repro.distributed.metrics import TierCost
from repro.topology.aggregator import RegionalAggregator
from repro.topology.tiers import Region, TierMap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.protocol import MatchingProtocol
    from repro.distributed.basestation import BaseStationNode
    from repro.distributed.datacenter import DataCenterNode
    from repro.distributed.events import TranscriptEntry
    from repro.distributed.executor import ShardedStationRunner
    from repro.distributed.transport.base import Transport

#: Seed-derivation labels for the per-tier transports: every tier draws its
#: fault randomness from the round's net seed through its own label, so a
#: two-tier round is exactly as replayable as a flat one.
TRUNK_SEED_LABEL = "topology-trunk"
REGION_SEED_LABEL = "topology-region"


@dataclass
class TwoTierRoundResult:
    """Everything the facade needs to account one hierarchical round."""

    all_reports: list[object]
    active_stations: list["BaseStationNode"]
    lost_station_count: int
    tier_costs: tuple[TierCost, ...]
    downlink_bytes: int
    uplink_bytes: int
    message_count: int
    retransmit_count: int
    dropped_frame_count: int
    duplicate_frame_count: int
    corrupt_frame_count: int
    goodput_fraction: float
    transmission_time_s: float
    transcript: tuple["TranscriptEntry", ...]
    #: Decoded summary payload bytes that landed at the center (storage).
    summary_payload_bytes: int
    shard_times: list[float] = field(default_factory=list)
    shard_count: int = 0


def _artifact_message(
    sender: str, recipient: str, artifact: object | None, wire_version: int
) -> Message:
    # The naive method distributes no artifact: stations receive only a tiny
    # control trigger, exactly like the flat engine's downlink.
    return Message(
        sender=sender,
        recipient=recipient,
        kind=(
            MessageKind.FILTER_DISSEMINATION
            if artifact is not None
            else MessageKind.CONTROL
        ),
        payload=artifact,
        wire_version=wire_version,
    )


def run_two_tier_round(
    *,
    protocol: "MatchingProtocol",
    center: "DataCenterNode",
    tier_map: TierMap,
    participants: Sequence["BaseStationNode"],
    artifact: object | None,
    trunk_transport: "Transport",
    regional_transports: Mapping[str, "Transport"],
    runner: "ShardedStationRunner",
) -> TwoTierRoundResult:
    """Drive one full two-tier round and return its routed outcome.

    ``participants`` is the round's station set in the cluster's canonical
    order; ``regional_transports`` maps region names to the fresh per-round
    transports their hop runs over.  Raises
    :class:`~repro.distributed.events.RoundTimeoutError` exactly like the
    flat engine when a transfer exhausts its budget and the transports do
    not allow partial phases.
    """
    from repro.distributed.executor import merge_shard_outcomes

    by_region: dict[str, list["BaseStationNode"]] = {}
    for station in participants:
        region = tier_map.region_of(station.node_id)
        by_region.setdefault(region.name, []).append(station)
    # Regions participate in region order; a region none of whose stations
    # joined the round is skipped entirely (its cell is offline this round).
    active_regions: list[Region] = [
        region for region in tier_map.regions if by_region.get(region.name)
    ]

    center.clear_inbox()
    aggregators = {
        region.name: RegionalAggregator(region) for region in active_regions
    }

    # Phase 1a: trunk downlink — the artifact travels once per region, not
    # once per station; this hop always terminates at co-resident aggregators.
    trunk_down = trunk_transport.broadcast(
        [
            (
                _artifact_message(
                    center.node_id,
                    region.aggregator_id,
                    artifact,
                    tier_map.trunk_wire_version,
                ),
                aggregators[region.name],
            )
            for region in active_regions
        ]
    )
    lost_aggregators = set(trunk_down.failed_ids)
    lost_station_count = sum(
        len(by_region[region.name])
        for region in active_regions
        if region.aggregator_id in lost_aggregators
    )
    served_regions = [
        region
        for region in active_regions
        if region.aggregator_id not in lost_aggregators
    ]

    # Phase 1b: regional downlink — each surviving aggregator fans the
    # artifact it decoded out to its region's stations, in parallel across
    # regions (each region runs on its own transport with its own ingress).
    region_down_durations: list[float] = []
    active_stations: list["BaseStationNode"] = []
    for region in served_regions:
        aggregator = aggregators[region.name]
        relayed = _relayed_artifact(aggregator, artifact)
        outcome = regional_transports[region.name].broadcast(
            [
                (
                    _artifact_message(
                        region.aggregator_id,
                        station.node_id,
                        relayed,
                        region.wire_version,
                    ),
                    station,
                )
                for station in by_region[region.name]
            ]
        )
        region_down_durations.append(outcome.duration_s)
        lost = set(outcome.failed_ids)
        lost_station_count += len(lost)
        active_stations.extend(
            station
            for station in by_region[region.name]
            if station.node_id not in lost
        )

    # Phase 2: sharded matching against one decoded artifact instance, over
    # the concatenation of the regions' survivors — which, because regions
    # are contiguous slices, is the flat engine's global station order.
    matching_artifact = (
        active_stations[0].latest_artifact() if active_stations else artifact
    )
    shard_outcomes = runner.run(protocol, active_stations, matching_artifact)
    reports_by_station = merge_shard_outcomes(shard_outcomes)
    shard_times = [outcome.elapsed_s for outcome in shard_outcomes]
    active_ids = {station.node_id for station in active_stations}

    # Phase 3a: regional uplink — per-station reports into the region's
    # aggregator ingress, again in parallel across regions.
    region_up_durations: list[float] = []
    for region in served_regions:
        aggregator = aggregators[region.name]
        sends = [
            (
                Message(
                    sender=station.node_id,
                    recipient=region.aggregator_id,
                    kind=MessageKind.MATCH_REPORT,
                    payload=reports_by_station[station.node_id],
                    wire_version=region.wire_version,
                ),
                aggregator,
            )
            for station in by_region[region.name]
            if station.node_id in active_ids
        ]
        if not sends:
            continue
        outcome = regional_transports[region.name].gather(sends)
        region_up_durations.append(outcome.duration_s)
        lost_station_count += len(outcome.failed_ids)

    # Phase 3b: trunk uplink — one deduplicated summary per region, consumed
    # at the center in region order so reordering can never change rankings.
    summary_sends: list[tuple[Message, "DataCenterNode"]] = []
    for region in served_regions:
        summary = aggregators[region.name].summarize(
            [station.node_id for station in by_region[region.name]]
        )
        summary_sends.append(
            (
                Message(
                    sender=region.aggregator_id,
                    recipient=center.node_id,
                    kind=MessageKind.MATCH_REPORT,
                    payload=summary,
                    wire_version=tier_map.trunk_wire_version,
                ),
                center,
            )
        )
    trunk_up = trunk_transport.gather(summary_sends) if summary_sends else None
    failed_summaries = set(trunk_up.failed_ids) if trunk_up is not None else set()
    for region in served_regions:
        if region.aggregator_id in failed_summaries:
            # The whole region's reports never reached the center this round.
            lost_station_count += sum(
                1
                for station in by_region[region.name]
                if station.node_id in active_ids
            )

    decoded_by_sender = center.reports_by_sender()
    all_reports: list[object] = []
    summary_payload_bytes = 0
    for message, _receiver in summary_sends:
        if message.sender in decoded_by_sender:
            summary_payload_bytes += message.payload_bytes()
            all_reports.extend(decoded_by_sender[message.sender])

    tier_costs, totals = _tier_ledger(
        tier_map, served_regions, trunk_transport, regional_transports
    )
    transmission_time_s = (
        trunk_down.duration_s
        + max(region_down_durations, default=0.0)
        + max(region_up_durations, default=0.0)
        + (trunk_up.duration_s if trunk_up is not None else 0.0)
    )
    return TwoTierRoundResult(
        all_reports=all_reports,
        active_stations=active_stations,
        lost_station_count=lost_station_count,
        tier_costs=tier_costs,
        transmission_time_s=transmission_time_s,
        transcript=_composed_transcript(
            trunk_transport, [regional_transports[r.name] for r in served_regions]
        ),
        summary_payload_bytes=summary_payload_bytes,
        shard_times=shard_times,
        shard_count=len(shard_outcomes),
        **totals,
    )


@dataclass
class TwoTierDeltaResult:
    """Everything a delta session needs to settle one hierarchical shipment."""

    #: Stations whose delta reached the *center* (regional hop delivered AND
    #: the region's trunk summary delivered) — only these are marked clean.
    delivered_station_ids: tuple[str, ...]
    #: Per delivered station, the reports the aggregator decoded off the
    #: regional wire — the center-side state attribution for those stations.
    reports_by_station: dict[str, list[object]]
    #: Per delivered station, the payload wire bytes its delta occupied on
    #: the regional hop — what the session's shipped-bytes ledger records.
    payload_bytes_by_station: dict[str, int]
    tier_costs: tuple[TierCost, ...]
    uplink_bytes: int
    message_count: int
    retransmit_count: int
    dropped_frame_count: int
    duplicate_frame_count: int
    corrupt_frame_count: int
    goodput_fraction: float
    transmission_time_s: float
    transcript: tuple["TranscriptEntry", ...]
    lost_station_count: int


def ship_two_tier_deltas(
    *,
    center: "DataCenterNode",
    tier_map: TierMap,
    deltas: Mapping[str, Sequence[object]],
    trunk_transport: "Transport",
    regional_transports: Mapping[str, "Transport"],
) -> TwoTierDeltaResult:
    """Ship dirty stations' delta reports up the two-tier tree.

    The uplink half of :func:`run_two_tier_round`, for continuous sessions:
    each dirty station's cached reports travel to its regional aggregator,
    every region that received at least one delta re-encodes one deduplicated
    summary onto the trunk, and a station counts as *delivered* only when its
    region's summary reached the center — a delta stranded at an aggregator
    by a trunk fault stays dirty and re-ships next step, so the tree never
    silently loses an update.

    Raises :class:`~repro.distributed.events.RoundTimeoutError` like the flat
    :meth:`~repro.core.streaming.ContinuousMatchingSession.ship_deltas`; on a
    trunk-phase timeout the re-raised error's ``delivered_ids`` are *station*
    ids (the regions whose summary landed before the failure), so callers can
    settle exactly-once semantics at station granularity.
    """
    from repro.distributed.events import RoundTimeoutError

    dirty_names = {tier_map.region_of(sid).name for sid in deltas}
    dirty_regions = [region for region in tier_map.regions if region.name in dirty_names]
    aggregators = {
        region.name: RegionalAggregator(region) for region in dirty_regions
    }
    center.clear_inbox()

    # Phase 1: regional uplink — deltas into each region's aggregator, in
    # canonical station order within the region.  A strict-network timeout
    # here aborts the shipment with nothing at the center, so no station is
    # marked delivered.
    region_up_durations: list[float] = []
    regional_sends: dict[str, list[tuple[Message, RegionalAggregator]]] = {}
    regional_delivered: dict[str, list[str]] = {}
    for region in dirty_regions:
        aggregator = aggregators[region.name]
        sends = [
            (
                Message(
                    sender=station_id,
                    recipient=region.aggregator_id,
                    kind=MessageKind.MATCH_REPORT,
                    payload=list(deltas[station_id]),
                    wire_version=region.wire_version,
                ),
                aggregator,
            )
            for station_id in region.station_ids
            if station_id in deltas
        ]
        regional_sends[region.name] = sends
        try:
            outcome = regional_transports[region.name].gather(sends)
        except RoundTimeoutError as error:
            raise RoundTimeoutError(
                f"regional delta uplink failed in {region.name}: {error}",
                failed_transfers=error.failed_transfers,
                delivered_ids=(),
            ) from error
        region_up_durations.append(outcome.duration_s)
        delivered = set(outcome.delivered_ids)
        regional_delivered[region.name] = [
            message.sender for message, _ in sends if message.sender in delivered
        ]

    # Phase 2: trunk uplink — one summary per region that received anything.
    summary_sends: list[tuple[Message, "DataCenterNode"]] = []
    stations_by_aggregator: dict[str, list[str]] = {}
    for region in dirty_regions:
        delivered_sids = regional_delivered[region.name]
        if not delivered_sids:
            continue
        summary = aggregators[region.name].summarize(delivered_sids)
        stations_by_aggregator[region.aggregator_id] = delivered_sids
        summary_sends.append(
            (
                Message(
                    sender=region.aggregator_id,
                    recipient=center.node_id,
                    kind=MessageKind.MATCH_REPORT,
                    payload=summary,
                    wire_version=tier_map.trunk_wire_version,
                ),
                center,
            )
        )
    trunk_duration = 0.0
    trunk_failed: set[str] = set()
    if summary_sends:
        try:
            trunk_up = trunk_transport.gather(summary_sends)
        except RoundTimeoutError as error:
            raise RoundTimeoutError(
                f"trunk delta uplink failed: {error}",
                failed_transfers=error.failed_transfers,
                delivered_ids=tuple(
                    station_id
                    for aggregator_id in error.delivered_ids
                    for station_id in stations_by_aggregator.get(aggregator_id, ())
                ),
            ) from error
        trunk_duration = trunk_up.duration_s
        trunk_failed = set(trunk_up.failed_ids)

    decoded_summaries = center.reports_by_sender()
    delivered_station_ids: list[str] = []
    reports_by_station: dict[str, list[object]] = {}
    payload_bytes_by_station: dict[str, int] = {}
    for region in dirty_regions:
        aggregator_id = region.aggregator_id
        if (
            aggregator_id not in stations_by_aggregator
            or aggregator_id in trunk_failed
            or aggregator_id not in decoded_summaries
        ):
            continue
        decoded_regional = aggregators[region.name].reports_by_sender()
        payload_sizes = {
            message.sender: message.payload_bytes()
            for message, _ in regional_sends[region.name]
        }
        for station_id in stations_by_aggregator[aggregator_id]:
            delivered_station_ids.append(station_id)
            reports_by_station[station_id] = list(
                decoded_regional.get(station_id, [])
            )
            payload_bytes_by_station[station_id] = payload_sizes[station_id]

    tier_costs, totals = _tier_ledger(
        tier_map, dirty_regions, trunk_transport, regional_transports
    )
    totals.pop("downlink_bytes")
    return TwoTierDeltaResult(
        delivered_station_ids=tuple(delivered_station_ids),
        reports_by_station=reports_by_station,
        payload_bytes_by_station=payload_bytes_by_station,
        tier_costs=tier_costs,
        transmission_time_s=(
            max(region_up_durations, default=0.0) + trunk_duration
        ),
        # Chronological for the uplink-only tree: regions first, trunk last.
        transcript=tuple(
            entry
            for transport in (
                [regional_transports[r.name] for r in dirty_regions]
                + [trunk_transport]
            )
            for entry in transport.transcript
        ),
        lost_station_count=len(deltas) - len(delivered_station_ids),
        **totals,
    )


def _relayed_artifact(
    aggregator: RegionalAggregator, artifact: object | None
) -> object | None:
    """The artifact instance the aggregator actually decoded off the trunk.

    Fault-free this equals the center's artifact byte-for-byte (the transport
    guarantees integrity), and sharing the decoded instance keeps the
    regional fan-out's encode memoized exactly like the flat broadcast.
    """
    for message in reversed(aggregator.inbox):
        if message.kind is MessageKind.FILTER_DISSEMINATION:
            return message.payload
    return artifact


def _tier_ledger(
    tier_map: TierMap,
    served_regions: Sequence[Region],
    trunk_transport: "Transport",
    regional_transports: Mapping[str, "Transport"],
) -> tuple[tuple[TierCost, ...], dict[str, object]]:
    """Per-tier cost breakdown plus the cross-tier totals."""
    tiers: list[TierCost] = []
    transports: list[tuple[str, int, "Transport"]] = [
        ("trunk", tier_map.trunk_wire_version, trunk_transport)
    ]
    transports.extend(
        (region.name, region.wire_version, regional_transports[region.name])
        for region in served_regions
    )
    payload_sent = payload_delivered = 0
    totals = dict(
        downlink_bytes=0,
        uplink_bytes=0,
        message_count=0,
        retransmit_count=0,
        dropped_frame_count=0,
        duplicate_frame_count=0,
        corrupt_frame_count=0,
    )
    for tier_name, wire_version, transport in transports:
        stats = transport.frame_stats()
        tiers.append(
            TierCost(
                tier=tier_name,
                downlink_bytes=transport.downlink_bytes,
                uplink_bytes=transport.uplink_bytes,
                message_count=transport.message_count,
                retransmit_count=stats.retransmit_count,
                dropped_frame_count=stats.frames_dropped,
                wire_version=wire_version,
            )
        )
        totals["downlink_bytes"] += transport.downlink_bytes
        totals["uplink_bytes"] += transport.uplink_bytes
        totals["message_count"] += transport.message_count
        totals["retransmit_count"] += stats.retransmit_count
        totals["dropped_frame_count"] += stats.frames_dropped
        totals["duplicate_frame_count"] += stats.frames_duplicate
        totals["corrupt_frame_count"] += stats.frames_corrupt
        payload_sent += stats.payload_bytes_sent
        payload_delivered += stats.payload_bytes_delivered
    totals["goodput_fraction"] = (
        payload_delivered / payload_sent if payload_sent else 1.0
    )
    return tuple(tiers), totals


def _composed_transcript(
    trunk_transport: "Transport", regional: Sequence["Transport"]
) -> tuple["TranscriptEntry", ...]:
    """One deterministic transcript for the whole tree.

    Composition order is trunk first, then each served region in region
    order — phase markers inside each transport's slice keep the downlink
    and uplink halves readable, and the order is a pure function of the tier
    map, never of delivery timing.
    """
    entries: list["TranscriptEntry"] = list(trunk_transport.transcript)
    for transport in regional:
        entries.extend(transport.transcript)
    return tuple(entries)
