"""The round engine: center ⇄ (regional aggregators ⇄) stations over a tier map.

:func:`run_two_tier_round` drives one matching round over the
:class:`~repro.topology.tiers.TierMap` and the
:class:`~repro.distributed.transport.base.Transport` contract — one
transport per region for the region's hop, plus a trunk transport for the
aggregator↔center hop when the map has a trunk — without changing the frame
protocol: every hop moves ordinary message envelopes, handed to the
transport as one :class:`~repro.distributed.transport.base.Frames` per
phase, so both backends (deterministic simulator and real TCP sockets) carry
every tier unmodified.

Phase order (the reverse tree of the paper's two phases)::

    trunk downlink   center      → aggregators   (artifact, once per region)
    regional downlink aggregator → stations      (artifact fan-out)
    matching          station runner, global station order
    regional uplink   stations   → aggregator    (per-station reports)
    trunk uplink      aggregator → center        (one deduplicated summary)

The star is the trunkless one-level map: its one region's parent is the
center itself, so only the two regional phases run, on the round's own
transport — which is exactly the paper's flat round, phase markers of empty
phases included.

Regions are contiguous slices of the station order and every inbox is
consumed in canonical station/region order, so a fault-free two-tier round
feeds the aggregation phase exactly the flat round's report sequence — the
ranking-parity invariant the test suite pins across all four protocols.

Latency composes as ``trunk_down + max(regional_down) + max(regional_up) +
trunk_up`` (absent trunk terms are ``0.0``): the regional subtrees run in
parallel (each region has its own ingress link), while the trunk serializes
at the center's ingress — which is also why ``center_ingress_bytes`` (the
trunk uplink) is the headline quantity the hierarchy exists to shrink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.core.reports import concat_reports
from repro.distributed.events import RoundTimeoutError
from repro.distributed.messages import MessageKind
from repro.distributed.metrics import TierCost
from repro.distributed.transport.base import Frames
from repro.topology.aggregator import RegionalAggregator
from repro.topology.tiers import Region, TierMap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.protocol import MatchingProtocol
    from repro.distributed.basestation import BaseStationNode
    from repro.distributed.datacenter import DataCenterNode
    from repro.distributed.events import TranscriptEntry
    from repro.distributed.executor import ShardedStationRunner
    from repro.distributed.transport.base import Transport

#: Seed-derivation labels for the per-tier transports of a map with a trunk:
#: every tier draws its fault randomness from the round's net seed through
#: its own label, so a two-tier round is exactly as replayable as a flat one.
TRUNK_SEED_LABEL = "topology-trunk"
REGION_SEED_LABEL = "topology-region"


@dataclass
class TwoTierRoundResult:
    """Everything the facade needs to account one routed round."""

    #: The reports the center decoded, concatenated in canonical send order.
    all_reports: Sequence[object]
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
    #: Decoded payload bytes that landed at the center (storage): the
    #: trunk summaries, or the station reports of a star.
    center_payload_bytes: int
    #: Each matched station's share of the matching call's wall time.
    station_time_s: float


def _artifact_frames(
    sender: str,
    receivers: Sequence["DataCenterNode | BaseStationNode"],
    artifact: object | None,
) -> Frames:
    """One frame of ``artifact`` from ``sender`` to each receiver."""
    # The naive method distributes no artifact: stations receive only a tiny
    # control trigger.
    kind = (
        MessageKind.FILTER_DISSEMINATION if artifact is not None else MessageKind.CONTROL
    )
    frames = Frames()
    for receiver in receivers:
        frames.add(sender, receiver.node_id, kind, artifact, receiver)
    return frames


def _report_frames(
    senders: Sequence[str],
    payloads: Sequence[object],
    head: "DataCenterNode",
) -> Frames:
    """One report frame from each sender into ``head``."""
    frames = Frames()
    recipient = head.node_id
    for sender, payload in zip(senders, payloads):
        frames.add(sender, recipient, MessageKind.MATCH_REPORT, payload, head)
    return frames


def _heads(
    regions: Sequence[Region], center: "DataCenterNode", trunked: bool
) -> dict[str, "DataCenterNode"]:
    """The node each region's hop terminates at: its aggregator, or the center."""
    return {
        region.name: RegionalAggregator(region) if trunked else center
        for region in regions
    }


def run_two_tier_round(
    *,
    protocol: "MatchingProtocol",
    center: "DataCenterNode",
    tier_map: TierMap,
    participants: Sequence["BaseStationNode"],
    artifact: object | None,
    trunk_transport: "Transport | None",
    regional_transports: Mapping[str, "Transport"],
    runner: "ShardedStationRunner",
) -> TwoTierRoundResult:
    """Drive one full round over ``tier_map`` and return its routed outcome.

    ``participants`` is the round's station set in the cluster's canonical
    order; ``regional_transports`` maps region names to the fresh per-round
    transports their hop runs over, and ``trunk_transport`` is ``None``
    exactly when the map has no trunk.  Raises
    :class:`~repro.distributed.events.RoundTimeoutError` when a transfer
    exhausts its budget and the transports do not allow partial phases.
    """
    by_region: dict[str, list["BaseStationNode"]] = {}
    for station in participants:
        region = tier_map.region_of(station.node_id)
        by_region.setdefault(region.name, []).append(station)
    # A region none of whose stations joined the round is skipped entirely
    # (its cell is offline this round).  A trunkless map's one region is the
    # round itself, so its hop runs even when it carries nothing.
    active_regions: list[Region] = [
        region
        for region in tier_map.regions
        if by_region.get(region.name) or trunk_transport is None
    ]
    center.clear_inbox()
    heads = _heads(active_regions, center, trunk_transport is not None)

    # Phase 1a: trunk downlink — the artifact travels once per region, not
    # once per station; this hop always terminates at co-resident aggregators.
    lost_station_count = 0
    trunk_down_s = 0.0
    served_regions = active_regions
    if trunk_transport is not None:
        trunk_down = trunk_transport.broadcast(
            _artifact_frames(
                center.node_id,
                [heads[region.name] for region in active_regions],
                artifact,
            )
        )
        trunk_down_s = trunk_down.duration_s
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

    # Phase 1b: regional downlink — each served region's head fans the
    # artifact it holds out to the region's stations, in parallel across
    # regions (each region runs on its own transport with its own ingress).
    region_down_durations: list[float] = []
    survivors: dict[str, list["BaseStationNode"]] = {}
    active_stations: list["BaseStationNode"] = []
    for region in served_regions:
        head = heads[region.name]
        relayed = _relayed_artifact(head, artifact)
        members = by_region.get(region.name, [])
        outcome = regional_transports[region.name].broadcast(
            _artifact_frames(head.node_id, members, relayed)
        )
        region_down_durations.append(outcome.duration_s)
        lost = set(outcome.failed_ids)
        lost_station_count += len(lost)
        survivors[region.name] = [
            station for station in members if station.node_id not in lost
        ]
        active_stations.extend(survivors[region.name])

    # Phase 2: matching against one decoded artifact instance, over the
    # concatenation of the regions' survivors — which, because regions are
    # contiguous slices, is the global station order.  All surviving copies
    # are equal by the transport's integrity guarantee, so one decoded
    # instance serves every station.
    matching_artifact = (
        active_stations[0].latest_artifact() if active_stations else artifact
    )
    matched = runner.run(protocol, active_stations, matching_artifact)
    reports_by_station = matched.reports

    # Phase 3a: regional uplink — per-station reports into the region's
    # head, again in parallel across regions.
    region_up_durations: list[float] = []
    center_frames = Frames()
    for region in served_regions:
        station_ids = [station.node_id for station in survivors[region.name]]
        frames = _report_frames(
            station_ids,
            [reports_by_station[station_id] for station_id in station_ids],
            heads[region.name],
        )
        if trunk_transport is None:
            center_frames = frames
        elif not frames:
            continue
        outcome = regional_transports[region.name].gather(frames)
        region_up_durations.append(outcome.duration_s)
        lost_station_count += len(outcome.failed_ids)

    # Phase 3b: trunk uplink — one deduplicated summary per region, consumed
    # at the center in region order so reordering can never change rankings.
    trunk_up_s = 0.0
    if trunk_transport is not None:
        center_frames = _report_frames(
            [region.aggregator_id for region in served_regions],
            [
                heads[region.name].summarize(
                    [station.node_id for station in by_region[region.name]]
                )
                for region in served_regions
            ],
            center,
        )
        if center_frames:
            trunk_up = trunk_transport.gather(center_frames)
            trunk_up_s = trunk_up.duration_s
            # A failed summary loses the whole region's reports this round.
            failed_summaries = set(trunk_up.failed_ids)
            lost_station_count += sum(
                len(survivors[region.name])
                for region in served_regions
                if region.aggregator_id in failed_summaries
            )

    # Aggregation input: what the center decoded, in canonical send order,
    # charged at the payload blocks that were sent.
    decoded_by_sender = center.reports_by_sender()
    received: list[Sequence[object]] = []
    center_payload_bytes = 0
    for sender, block in zip(center_frames.senders, center_frames.blocks()):
        decoded = decoded_by_sender.get(sender)
        if decoded is not None:
            center_payload_bytes += len(block)
            received.append(decoded)

    tier_costs, totals = _tier_ledger(served_regions, trunk_transport, regional_transports)
    transmission_time_s = (
        trunk_down_s
        + max(region_down_durations, default=0.0)
        + max(region_up_durations, default=0.0)
        + trunk_up_s
    )
    return TwoTierRoundResult(
        all_reports=concat_reports(received),
        active_stations=active_stations,
        lost_station_count=lost_station_count,
        tier_costs=tier_costs,
        transmission_time_s=transmission_time_s,
        transcript=_composed_transcript(
            trunk_transport, [regional_transports[r.name] for r in served_regions]
        ),
        center_payload_bytes=center_payload_bytes,
        station_time_s=matched.station_time_s,
        **totals,
    )


@dataclass
class TwoTierDeltaResult:
    """Everything a delta session needs to settle one routed shipment."""

    #: Stations whose delta reached the *center* (in a tree: the regional hop
    #: delivered AND the region's trunk summary delivered), in send order —
    #: only these are settled.
    delivered_station_ids: tuple[str, ...]
    #: Per delivered station, the reports decoded off the regional wire — the
    #: center-side state attribution for those stations.
    reports_by_station: dict[str, Sequence[object]]
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
    #: The timeout that stopped the shipment, or ``None``.  The stations
    #: above were delivered before it; the caller settles them, then raises.
    error: RoundTimeoutError | None = None


def ship_two_tier_deltas(
    *,
    center: "DataCenterNode",
    tier_map: TierMap,
    deltas: Mapping[str, Sequence[object]],
    trunk_transport: "Transport | None",
    regional_transports: Mapping[str, "Transport"],
) -> TwoTierDeltaResult:
    """Ship dirty stations' delta reports up the tier map.

    The uplink half of :func:`run_two_tier_round`, for continuous sessions:
    each dirty station's cached reports travel, in ``deltas`` (update) order,
    to its region's head.  In a tree every region that received at least one
    delta re-encodes one deduplicated summary onto the trunk, and a station
    counts as *delivered* only when its region's summary reached the center —
    a delta stranded at an aggregator by a trunk fault stays dirty and
    re-ships next step, so the tree never silently loses an update.

    A strict transport that cannot converge does not raise here: the result
    carries the :class:`~repro.distributed.events.RoundTimeoutError` in
    ``error``, next to the stations that reached the center before it, so
    the caller can settle those exactly once before raising.
    """
    dirty: dict[str, list[str]] = {}
    for station_id in deltas:
        dirty.setdefault(tier_map.region_of(station_id).name, []).append(station_id)
    # As in a round, a trunkless map's one hop runs even when it is empty.
    regions = [
        region
        for region in tier_map.regions
        if region.name in dirty or trunk_transport is None
    ]
    heads = _heads(regions, center, trunk_transport is not None)
    center.clear_inbox()

    # Phase 1: regional uplink — deltas into each region's head.  In a tree
    # a timeout here aborts the shipment with nothing at the center yet.
    error: RoundTimeoutError | None = None
    region_up_durations: list[float] = []
    regional_frames: dict[str, Frames] = {}
    landed: dict[str, tuple[str, ...]] = {}
    for region in regions:
        station_ids = dirty.get(region.name, [])
        frames = regional_frames[region.name] = _report_frames(
            station_ids,
            [deltas[station_id] for station_id in station_ids],
            heads[region.name],
        )
        try:
            outcome = regional_transports[region.name].gather(frames)
        except RoundTimeoutError as failure:
            if trunk_transport is None:
                error = failure
                landed[region.name] = failure.delivered_ids
            else:
                error = _relabelled(
                    failure, f"regional delta uplink failed in {region.name}", ()
                )
                landed.clear()
            break
        region_up_durations.append(outcome.duration_s)
        landed[region.name] = outcome.delivered_ids

    # Phase 2: trunk uplink — one summary per region that received anything;
    # a region's stations reach the center only with its summary.
    trunk_duration = 0.0
    if trunk_transport is not None and error is None:
        summarized_regions = [region for region in regions if landed[region.name]]
        summary_frames = _report_frames(
            [region.aggregator_id for region in summarized_regions],
            [
                heads[region.name].summarize(landed[region.name])
                for region in summarized_regions
            ],
            center,
        )
        if summary_frames:
            try:
                trunk_up = trunk_transport.gather(summary_frames)
            except RoundTimeoutError as failure:
                error = failure
                summarized = set(failure.delivered_ids)
            else:
                trunk_duration = trunk_up.duration_s
                summarized = set(trunk_up.delivered_ids)
            landed = {
                name: ids
                for name, ids in landed.items()
                if heads[name].node_id in summarized
            }
            if error is not None:
                error = _relabelled(
                    error,
                    "trunk delta uplink failed",
                    tuple(sid for ids in landed.values() for sid in ids),
                )

    reports_by_station: dict[str, Sequence[object]] = {}
    payload_bytes_by_station: dict[str, int] = {}
    for region in regions:
        delivered = set(landed.get(region.name, ()))
        if not delivered:
            continue
        decoded = heads[region.name].reports_by_sender()
        frames = regional_frames[region.name]
        # Charged at the payload blocks the regional hop sent.
        for sender, block in zip(frames.senders, frames.blocks()):
            if sender in delivered:
                reports_by_station[sender] = decoded.get(sender, [])
                payload_bytes_by_station[sender] = len(block)

    tier_costs, totals = _tier_ledger(regions, trunk_transport, regional_transports)
    totals.pop("downlink_bytes")
    hops = [regional_transports[r.name] for r in regions]
    if trunk_transport is not None:
        hops.append(trunk_transport)
    return TwoTierDeltaResult(
        delivered_station_ids=tuple(reports_by_station),
        reports_by_station=reports_by_station,
        payload_bytes_by_station=payload_bytes_by_station,
        tier_costs=tier_costs,
        transmission_time_s=(
            max(region_up_durations, default=0.0) + trunk_duration
        ),
        # Chronological for the uplink-only tree: regions first, trunk last.
        transcript=tuple(entry for hop in hops for entry in hop.transcript),
        lost_station_count=len(deltas) - len(reports_by_station),
        error=error,
        **totals,
    )


def _relabelled(
    failure: RoundTimeoutError, where: str, delivered_ids: tuple[str, ...]
) -> RoundTimeoutError:
    """``failure`` prefixed with the tree hop it happened on."""
    error = RoundTimeoutError(
        f"{where}: {failure}",
        failed_transfers=failure.failed_transfers,
        delivered_ids=delivered_ids,
    )
    error.__cause__ = failure
    return error


def _relayed_artifact(
    head: "DataCenterNode", artifact: object | None
) -> object | None:
    """The artifact instance the region's head actually decoded off the trunk.

    Fault-free this equals the center's artifact byte-for-byte (the transport
    guarantees integrity), and sharing the decoded instance keeps the
    regional fan-out's encode memoized exactly like a one-hop broadcast.  A
    star's head is the center, whose inbox holds no artifact: it sends its own.
    """
    try:
        return head.latest_artifact()
    except LookupError:
        return artifact


def _tier_ledger(
    served_regions: Sequence[Region],
    trunk_transport: "Transport | None",
    regional_transports: Mapping[str, "Transport"],
) -> tuple[tuple[TierCost, ...], dict[str, object]]:
    """Per-tier cost breakdown plus the cross-tier totals.

    A trunkless map reports no tier rows (``CostReport.tiers == ()`` is the
    flat-star contract); its totals are its one transport's ledger.
    """
    tiers: list[TierCost] = []
    transports: list[tuple[str, "Transport"]] = []
    if trunk_transport is not None:
        transports.append(("trunk", trunk_transport))
    transports.extend(
        (region.name, regional_transports[region.name]) for region in served_regions
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
    for tier_name, transport in transports:
        stats = transport.frame_stats()
        tiers.append(
            TierCost(
                tier=tier_name,
                downlink_bytes=transport.downlink_bytes,
                uplink_bytes=transport.uplink_bytes,
                message_count=transport.message_count,
                retransmit_count=stats.retransmit_count,
                dropped_frame_count=stats.frames_dropped,
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
    return (tuple(tiers) if trunk_transport is not None else ()), totals


def _composed_transcript(
    trunk_transport: "Transport | None", regional: Sequence["Transport"]
) -> tuple["TranscriptEntry", ...]:
    """One deterministic transcript for the whole tree.

    Composition order is the trunk (if any) first, then each served region
    in region order — phase markers inside each transport's slice keep the
    downlink and uplink halves readable, and the order is a pure function of
    the tier map, never of delivery timing.
    """
    entries: list["TranscriptEntry"] = (
        list(trunk_transport.transcript) if trunk_transport is not None else []
    )
    for transport in regional:
        entries.extend(transport.transcript)
    return tuple(entries)
