"""Cost accounting for the simulated distributed environment.

The quantities mirror the paper's evaluation metrics (Section V-C): communication
cost (message volume between stations and the center), storage cost, and time cost
split into its computation and transmission components.  The comparison figures
report communication and storage as a fraction of the naive method, which
:func:`relative_to` computes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TierCost:
    """One tier's share of a hierarchical round's traffic.

    ``tier`` is ``"trunk"`` for the aggregator↔center hop or the region name
    for an aggregator↔stations hop.  Bytes are real encoded ``DIMW`` lengths
    charged on that tier's links, exactly like the flat ledger's totals.
    """

    tier: str
    downlink_bytes: int = 0
    uplink_bytes: int = 0
    message_count: int = 0
    retransmit_count: int = 0
    dropped_frame_count: int = 0


@dataclass(frozen=True)
class CostReport:
    """Costs measured for one protocol run over one query batch."""

    method: str
    downlink_bytes: int = 0
    uplink_bytes: int = 0
    message_count: int = 0
    storage_center_bytes: int = 0
    storage_station_bytes: int = 0
    encode_time_s: float = 0.0
    station_time_s: float = 0.0
    aggregate_time_s: float = 0.0
    transmission_time_s: float = 0.0
    report_count: int = 0
    #: Fault profile the round's transport ran under ("none" = fault-free).
    fault_profile: str = "none"
    #: Seed of the network fault injector for this round.
    net_seed: int = 0
    #: Retransmissions the ack/retransmit policy issued (0 when fault-free).
    retransmit_count: int = 0
    #: Frames lost to drop faults or blackouts.
    dropped_frame_count: int = 0
    #: Duplicate/late frame arrivals the receivers suppressed.
    duplicate_frame_count: int = 0
    #: Frames rejected as corrupt (by the wire decode or the frame checksum).
    corrupt_frame_count: int = 0
    #: Stations whose transfers timed out and dropped out of a partial round.
    lost_station_count: int = 0
    #: Unique delivered payload bytes over total bytes put on the wire
    #: (exactly 1.0 for a fault-free round).
    goodput_fraction: float = 1.0
    #: Hierarchical rounds: per-tier breakdown (trunk hop first, then each
    #: region in tier-map order).  Empty for flat-star rounds, so flat
    #: payloads and ledgers keep their historical shape.
    tiers: tuple[TierCost, ...] = ()

    @property
    def communication_bytes(self) -> int:
        """Total bytes exchanged between the center and the stations."""
        return self.downlink_bytes + self.uplink_bytes

    @property
    def center_ingress_bytes(self) -> int:
        """Bytes that actually arrive at the data center's uplink ingress.

        Flat star: every station report crosses the center's ingress, so this
        is the whole uplink.  Two-tier: only the trunk hop terminates at the
        center — the regional uplinks land at the aggregators — so this is
        the trunk tier's uplink bytes (the quantity the hierarchy exists to
        shrink).
        """
        for tier in self.tiers:
            if tier.tier == "trunk":
                return tier.uplink_bytes
        return self.uplink_bytes

    @property
    def storage_bytes(self) -> int:
        """Total extra storage attributable to the matching method."""
        return self.storage_center_bytes + self.storage_station_bytes

    @property
    def computation_time_s(self) -> float:
        """Wall-clock computation: encoding + (parallel) station matching + aggregation."""
        return self.encode_time_s + self.station_time_s + self.aggregate_time_s

    @property
    def total_time_s(self) -> float:
        """End-to-end time: computation plus simulated transmission."""
        return self.computation_time_s + self.transmission_time_s

    def relative_to(self, baseline: "CostReport") -> dict[str, float]:
        """Communication/storage/time of this run as a fraction of ``baseline``.

        A fraction of 0 is reported when the baseline quantity is itself 0.
        """

        def ratio(value: float, reference: float) -> float:
            return float(value) / float(reference) if reference else 0.0

        return {
            "communication": ratio(self.communication_bytes, baseline.communication_bytes),
            "storage": ratio(self.storage_bytes, baseline.storage_bytes),
            "time": ratio(self.total_time_s, baseline.total_time_s),
        }
