"""Typed values of one distributed matching round.

The round engine itself lives behind the :class:`repro.cluster.Cluster`
facade (:mod:`repro.cluster.facade`), which drives any
:class:`~repro.core.protocol.MatchingProtocol` through the three phases of
Figure 2 over a :class:`~repro.datagen.workload.DistributedDataset` on the
deterministic event-driven transport.  This module holds the values that
engine takes and returns:

* :class:`SimulationOutcome` — the typed result of one full wire round;
* :class:`RoundOptions` — the single bag of per-round overrides (station
  subset, transport seed, ranking cutoff) accepted by
  :meth:`Cluster.round`, :meth:`Cluster.drive` and
  :meth:`ClusterSession.step`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro import wire
from repro.core.protocol import RankedResults
from repro.distributed.events import TranscriptEntry, transcript_to_bytes

if TYPE_CHECKING:  # pragma: no cover - import for type checking only
    from repro.distributed.metrics import CostReport


@dataclass(frozen=True)
class SimulationOutcome:
    """The result of running one protocol over one query batch."""

    method: str
    results: RankedResults
    costs: "CostReport"
    #: The round's deterministic network transcript — identical seeds and
    #: fault profile reproduce these entries byte-for-byte (see
    #: :func:`repro.distributed.events.transcript_to_bytes`).
    transcript: tuple[TranscriptEntry, ...] = field(default=())

    @property
    def retrieved_user_ids(self) -> list[str]:
        """Retrieved user ids in rank order."""
        return self.results.user_ids()

    def transcript_bytes(self) -> bytes:
        """Canonical byte rendering of the round's event transcript."""
        return transcript_to_bytes(self.transcript)


@dataclass(frozen=True)
class RoundOptions:
    """Per-round overrides, collapsed into one typed value.

    ``station_ids`` restricts the round to a subset of stations (how a
    multi-round driver models churn: an absent station neither receives the
    artifact nor uploads a report); ``net_seed`` overrides the transport seed
    for this round only, so a workload driver can derive one deterministic
    seed per round from a single scenario seed; ``k`` is the ranking cutoff
    (``None`` = the protocol's natural cutoff).
    """

    station_ids: tuple[str, ...] | None = None
    net_seed: int | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.station_ids is not None:
            object.__setattr__(
                self,
                "station_ids",
                tuple(str(station_id) for station_id in self.station_ids),
            )
        if self.net_seed is not None and (
            not isinstance(self.net_seed, int) or isinstance(self.net_seed, bool)
        ):
            raise ValueError(f"net_seed must be an integer or None, got {self.net_seed!r}")
        if self.k is not None and (
            not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 0
        ):
            raise ValueError(f"k must be a non-negative integer or None, got {self.k!r}")

    @classmethod
    def merge(
        cls,
        options: "RoundOptions | None",
        station_ids: Sequence[str] | None = None,
        net_seed: int | None = None,
        k: int | None = None,
    ) -> "RoundOptions":
        """Fold loose keyword overrides and an options bag into one value.

        Passing both an ``options`` object and any loose keyword is an error —
        the caller must pick one spelling per round.
        """
        loose = station_ids is not None or net_seed is not None or k is not None
        if options is not None:
            if loose:
                raise ValueError(
                    "pass per-round overrides either as RoundOptions or as "
                    "keyword arguments, not both"
                )
            return options
        if not loose:
            return cls()
        return cls(
            station_ids=tuple(station_ids) if station_ids is not None else None,
            net_seed=net_seed,
            k=k,
        )


def _artifact_size_bytes(artifact: object | None) -> int:
    """Actual encoded size of a distributed artifact (0 when there is none)."""
    if artifact is None:
        return 0
    return wire.encoded_size(artifact)
