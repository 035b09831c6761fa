"""The per-station matching phase of a round.

The paper models base stations as running their matching phase concurrently
(one thread per station), so the phase's wall time is the maximum over
stations.  The stations here run back to back in-process as one
:meth:`~repro.core.protocol.MatchingProtocol.match_stations` call, so the
filter-based protocols match every station in one vectorized pass, and each
station is charged an equal share of that call's wall time: the
concurrent-stations share of the work actually done.

Results are returned keyed by station id, in station order (matching is
deterministic and aggregation happens in station order at the caller).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.protocol import MatchingProtocol

if TYPE_CHECKING:  # pragma: no cover - import for type checking only
    from repro.distributed.basestation import BaseStationNode


@dataclass(frozen=True)
class MatchingOutcome:
    """Every station's reports and each station's charged time for one matching phase."""

    #: ``station_id -> reports``, in station order.
    reports: dict[str, Sequence[object]]
    #: Each station's equal share of the one call's wall time (``0.0`` for no
    #: stations): the max-over-stations latency model's station phase.
    station_time_s: float


class ShardedStationRunner:
    """Runs a round's matching phase as one timed ``match_stations`` call.

    The name outlived the shards: the system benchmark's tracer wraps
    ``ShardedStationRunner.run`` as its ``match`` layer.
    """

    def run(
        self,
        protocol: MatchingProtocol,
        stations: "Sequence[BaseStationNode]",
        artifact: object | None,
    ) -> MatchingOutcome:
        """Match every station in one call; each is charged an equal share of its time."""
        count = len(stations)
        if not count:
            return MatchingOutcome({}, 0.0)
        payload = [(station.node_id, station.patterns) for station in stations]
        start = time.perf_counter()
        reports = protocol.match_stations(payload, artifact)
        elapsed = time.perf_counter() - start
        station_ids = [station_id for station_id, _patterns in payload]
        return MatchingOutcome(dict(zip(station_ids, reports)), elapsed / count)
