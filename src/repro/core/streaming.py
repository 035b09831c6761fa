"""Continuous (incremental) matching for dynamically evolving station data.

The paper's Characteristic 2 and running example call for *online, near-real-time*
monitoring: communication data keep arriving at base stations, and the data center
wants the current top-K without recomputing everything from scratch.  Because the
per-station phase of any :class:`~repro.core.protocol.MatchingProtocol` depends only
on that station's own data and the (fixed) encoded query batch, the session below
caches per-station reports and recomputes only the stations whose data changed,
re-running only the cheap aggregation step to refresh the ranking.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.protocol import MatchingProtocol, RankedResults
from repro.core.reports import concat_reports, own_reports
from repro.timeseries.pattern import PatternSet
from repro.timeseries.query import QueryPattern
from repro.utils.validation import require_non_empty


class ContinuousMatchingSession:
    """Incrementally maintained matching round for one query batch.

    The ``repro.cluster.Cluster`` facade drives one of these behind its delta
    session handle (``cluster.open_session(mode="deltas")``), which adds
    transport shipping, downlink accounting and typed step reports.

    The session encodes the query batch once, then accepts per-station data updates
    (replacing that station's stored pattern set) and serves the current ranked
    results on demand.  Only updated stations are re-matched; aggregation runs over
    the cached reports of every station.

    The session also maintains *wire deltas*: each update marks its station
    dirty, and :meth:`ship_deltas` sends only the dirty stations' report
    payloads through a transport — the bytes a real deployment would re-ship
    upstream (the facade ships through its router and settles the ledger with
    :meth:`mark_delivered`).  Unchanged stations are neither re-matched nor
    re-shipped.
    """

    def __init__(self, protocol: MatchingProtocol, queries: Sequence[QueryPattern]) -> None:
        if not isinstance(protocol, MatchingProtocol):
            raise TypeError(
                f"protocol must be a MatchingProtocol, got {type(protocol).__name__}"
            )
        require_non_empty(queries, "queries")
        self._protocol = protocol
        self._queries = tuple(queries)
        self._artifact = protocol.encode(list(queries))
        self._reports_by_station: dict[str, Sequence[object]] = {}
        # The last pattern set each station reported, kept so a query-batch
        # rotation (replace_queries) can re-match every station in place.
        self._patterns_by_station: dict[str, PatternSet] = {}
        self._update_count = 0
        self._matching_runs = 0
        self._batch_encodings = 1
        # Wire-delta state: stations changed since they last shipped, in
        # update order.
        self._dirty: dict[str, None] = {}
        self._delta_bytes_shipped = 0

    # -- properties ------------------------------------------------------------

    @property
    def protocol(self) -> MatchingProtocol:
        """The matching protocol driven by this session."""
        return self._protocol

    @property
    def queries(self) -> tuple[QueryPattern, ...]:
        """The (fixed) query batch this session answers."""
        return self._queries

    @property
    def artifact(self) -> object | None:
        """The encoded artifact distributed to stations (e.g. the WBF)."""
        return self._artifact

    @property
    def station_ids(self) -> list[str]:
        """Stations that have reported data so far."""
        return list(self._reports_by_station)

    @property
    def station_count(self) -> int:
        """Number of stations that have reported data so far."""
        return len(self._reports_by_station)

    def __contains__(self, station_id: object) -> bool:
        return str(station_id) in self._reports_by_station

    @property
    def update_count(self) -> int:
        """Number of station updates applied."""
        return self._update_count

    @property
    def matching_runs(self) -> int:
        """Number of per-station matching executions performed (cache misses)."""
        return self._matching_runs

    @property
    def batch_encodings(self) -> int:
        """Number of query-batch encodings performed (1 + replace_queries calls)."""
        return self._batch_encodings

    # -- updates ---------------------------------------------------------------

    def update_station(self, station_id: str, patterns: PatternSet) -> int:
        """Replace ``station_id``'s stored patterns and re-run its matching phase.

        Returns the number of reports the station now contributes.  Stations not
        updated keep their cached reports, so a burst of updates at one cell does not
        trigger re-matching anywhere else.
        """
        if not isinstance(patterns, PatternSet):
            raise TypeError(f"patterns must be a PatternSet, got {type(patterns).__name__}")
        reports = self._protocol.station_match(station_id, patterns, self._artifact)
        key = str(station_id)
        self._reports_by_station[key] = own_reports(reports)
        self._patterns_by_station[key] = patterns
        self._update_count += 1
        self._matching_runs += 1
        self._dirty[key] = None
        return len(reports)

    def remove_station(self, station_id: str) -> None:
        """Drop a station's cached reports (e.g. the station went offline)."""
        key = str(station_id)
        self._reports_by_station.pop(key, None)
        self._patterns_by_station.pop(key, None)
        self._update_count += 1
        self._dirty.pop(key, None)

    def replace_queries(self, queries: Sequence[QueryPattern]) -> None:
        """Rotate the session to a new query batch, re-matching every station.

        A long-running monitoring deployment does not answer one batch forever:
        campaigns end and new ones arrive.  Rotation re-encodes the artifact
        once, re-runs the matching phase of every station whose patterns the
        session has seen (their stored pattern sets are retained across
        updates) in one :meth:`~repro.core.protocol.MatchingProtocol.match_stations`
        call, and marks them all dirty — the next shipment re-ships the whole
        round, exactly as a real redeployment would after a fresh dissemination.
        """
        require_non_empty(queries, "queries")
        self._queries = tuple(queries)
        self._artifact = self._protocol.encode(list(queries))
        self._batch_encodings += 1
        stations = list(self._patterns_by_station.items())
        matched = self._protocol.match_stations(stations, self._artifact)
        for (key, _patterns), reports in zip(stations, matched):
            self._reports_by_station[key] = own_reports(reports)
            self._dirty[key] = None
        self._matching_runs += len(stations)

    # -- wire deltas -------------------------------------------------------------

    @property
    def dirty_station_ids(self) -> tuple[str, ...]:
        """Stations updated since they last shipped, in update order."""
        return tuple(self._dirty)

    @property
    def delta_bytes_shipped(self) -> int:
        """Total payload wire bytes shipped or marked delivered so far."""
        return self._delta_bytes_shipped

    def reports_for(self, station_id: str) -> Sequence[object]:
        """One station's currently cached report list, for the caller to keep."""
        return own_reports(self._reports_by_station.get(str(station_id), []))

    def mark_delivered(self, delivered: Mapping[str, int]) -> None:
        """Mark stations clean after an *external* transport shipped their deltas.

        ``delivered`` maps station id to the payload wire bytes that reached
        the center — the cluster facade ships deltas through the router's
        tier map of transports and settles the session's dirty/shipped
        ledger through this verb, exactly like :meth:`ship_deltas` settles
        its own single-transport shipment.
        """
        for station_id, payload_bytes in delivered.items():
            self._dirty.pop(station_id, None)
            self._delta_bytes_shipped += int(payload_bytes)

    def ship_deltas(self, network, center) -> dict[str, bytes]:
        """Ship the dirty stations' reports to ``center`` through a transport.

        Each dirty station's cached reports travel as one encoded
        ``MATCH_REPORT`` frame through the event-driven
        :class:`~repro.distributed.network.SimulatedNetwork` — exposed to its
        fault plan, retransmitted on loss/corruption, decoded by the center
        from real wire bytes.  Stations whose transfer completed are marked
        clean; a station whose transfer timed out (partial-delivery networks
        only) *stays dirty* so the next shipment retries it.  Returns
        ``station_id -> payload wire bytes`` for the stations that delivered;
        raises :class:`~repro.distributed.events.RoundTimeoutError` on a
        strict network that cannot converge.
        """
        # Imported lazily: core must not depend on distributed at module load
        # (distributed imports core).
        from repro.distributed.events import RoundTimeoutError
        from repro.distributed.messages import MessageKind
        from repro.distributed.transport.base import Frames

        frames = Frames()
        for station_id in self._dirty:
            frames.add(
                station_id,
                center.node_id,
                MessageKind.MATCH_REPORT,
                own_reports(self._reports_by_station.get(station_id, [])),
                center,
            )
        try:
            outcome = network.gather(frames)
        except RoundTimeoutError as error:
            # Stations that delivered before the phase failed already sit
            # decoded in the center's inbox: mark them clean so a retry after
            # the error cannot re-ship them (exactly-once to the application).
            self._mark_shipped(frames, error.delivered_ids)
            raise
        return self._mark_shipped(frames, outcome.delivered_ids)

    def _mark_shipped(self, frames, delivered_ids) -> dict[str, bytes]:
        """Clear dirty flags and account bytes for the delivered stations."""
        delivered_set = set(delivered_ids)
        delivered: dict[str, bytes] = {}
        for station_id, payload in zip(frames.senders, frames.blocks()):
            if station_id in delivered_set:
                delivered[station_id] = payload
                self._dirty.pop(station_id, None)
                self._delta_bytes_shipped += len(payload)
        return delivered

    # -- queries ----------------------------------------------------------------

    def pending_reports(self) -> Sequence[object]:
        """All cached reports across stations, in station-update order."""
        return concat_reports(self._reports_by_station.values())

    def current_results(self, k: int | None = None) -> RankedResults:
        """Aggregate the cached reports into the current ranked top-K."""
        return self._protocol.aggregate(self.pending_reports(), k)

    def __repr__(self) -> str:
        return (
            f"ContinuousMatchingSession(protocol={self._protocol.name!r}, "
            f"queries={len(self._queries)}, stations={len(self._reports_by_station)}, "
            f"updates={self._update_count})"
        )
