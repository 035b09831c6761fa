"""Typed results of facade-driven rounds, and the cluster snapshot type.

A :class:`RoundReport` is the one report shape both drive styles return: a
full wire round (:meth:`repro.cluster.Cluster.round`, ``mode="round"``) and an
incremental delta shipment of an open session
(:meth:`repro.cluster.ClusterSession.step`, ``mode="delta"``).  Callers that
only consume the common surface (ranking, byte counts, reliability counters,
transcript) never need to know which drive produced it; the full-round extras
(the complete :class:`~repro.distributed.metrics.CostReport`) ride along in
``costs`` when available.

A :class:`ClusterSnapshot` freezes the facade's mutable state — the
subscription, the published station patterns, the round counter and the
recorded transcripts — so a cluster can be restored to an earlier point
(warm starts, mid-workload failover) and continue with a byte-identical
transcript, which ``tests/cluster/test_snapshot.py`` pins property-style.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.core.protocol import RankedResults
from repro.distributed.events import TranscriptEntry, transcript_to_bytes
from repro.distributed.metrics import CostReport
from repro.timeseries.pattern import PatternSet
from repro.timeseries.query import QueryPattern

#: The two drive styles a report can come from.
ROUND_MODES = ("round", "delta")


@dataclass(frozen=True)
class RoundReport:
    """Everything one facade-driven round reports upward."""

    round_index: int
    #: ``"round"`` for a full wire round, ``"delta"`` for a session shipment.
    mode: str
    results: RankedResults
    query_count: int
    active_station_count: int
    downlink_bytes: int
    uplink_bytes: int
    #: The round's *virtual* transmission time (deterministic under the seed
    #: contract) — never measured wall-clock.
    latency_s: float
    goodput_fraction: float
    retransmit_count: int
    #: Full rounds: stations that timed out of the round.  Delta shipments:
    #: stations still dirty after the shipment (they retry next step).
    lost_station_count: int
    transcript: tuple[TranscriptEntry, ...] = field(repr=False, default=())
    #: The complete cost report of a full wire round (``None`` in delta mode,
    #: where only the delta's transport costs exist).
    costs: CostReport | None = None
    #: Delta mode: stations whose shipment was delivered this step.
    delivered_station_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in ROUND_MODES:
            raise ValueError(f"mode must be one of {ROUND_MODES}, got {self.mode!r}")

    @property
    def total_bytes(self) -> int:
        """Downlink plus uplink bytes of the round."""
        return self.downlink_bytes + self.uplink_bytes

    @property
    def retrieved_user_ids(self) -> list[str]:
        """Retrieved user ids in rank order."""
        return self.results.user_ids()

    def transcript_bytes(self) -> bytes:
        """Canonical byte rendering of the round's event transcript."""
        return transcript_to_bytes(self.transcript)


@dataclass(frozen=True)
class ClusterSnapshot:
    """Frozen restorable state of one :class:`~repro.cluster.Cluster`.

    Pattern sets and query patterns are immutable value objects, so the
    snapshot shares them structurally; restoring installs the references and
    rebuilds the station nodes around them.
    """

    queries: tuple[QueryPattern, ...]
    #: ``(station_id, published patterns)`` in dataset station order.  For a
    #: lazily served (source-backed) cluster only the explicitly *pinned*
    #: stations appear — transient batches are re-derivable from the source.
    patterns: tuple[tuple[str, PatternSet], ...]
    round_index: int
    #: A copy of the cluster's running transcript digest (a ``hashlib``
    #: sha256 object, which cannot be pickled); :meth:`Cluster.restore`
    #: installs a copy of it.
    transcript_hash: "hashlib._Hash" = field(
        repr=False, compare=False, default_factory=hashlib.sha256
    )
    #: Source-backed clusters: stations withdrawn via ``retire`` (the source
    #: still declares them, but rounds must not serve them after restore).
    withdrawn: tuple[str, ...] = ()

    @property
    def station_count(self) -> int:
        """Number of pattern-bearing stations captured."""
        return len(self.patterns)
