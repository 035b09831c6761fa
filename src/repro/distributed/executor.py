"""Sharded execution of the per-station matching phase.

The paper models base stations as running their matching phase concurrently
(one thread per station), so the phase's wall time is the maximum over
stations.  This module makes that model executable: stations are partitioned
into *shards*, each shard is one unit of sequential work, and shards execute
through a pluggable backend —

* ``"serial"`` — in-process.  The whole round is one
  :meth:`~repro.core.protocol.MatchingProtocol.match_stations` call, so the
  filter-based protocols match every station in one vectorized pass.  Each
  shard (one per station by default) is charged that call's wall time in
  proportion to its station count, so the latency model's per-shard times
  are the concurrent-stations share of the work actually done;
* ``"thread"`` — :class:`concurrent.futures.ThreadPoolExecutor`, one
  ``match_stations`` call per shard; effective when matching releases the
  GIL (NumPy) or stations are I/O-bound;
* ``"process"`` — :class:`concurrent.futures.ProcessPoolExecutor`, one call
  per shard; true parallelism for CPU-bound pure-Python matching.
  Protocols, pattern sets and artifacts are pickled to the workers, so
  matcher caches are rebuilt there.

Results are returned keyed by station id and are *identical* across executors
(matching is deterministic and aggregation happens in station order at the
caller), which the integration suite asserts; only the timing differs.  The
per-shard times feed the max-over-stations latency model: a shard is the unit
that runs sequentially, so the simulated station phase costs ``max`` over
shard times.
"""

from __future__ import annotations

import os
import time
import zlib
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Sequence

from repro.core.config import EXECUTOR_CHOICES
from repro.core.protocol import MatchingProtocol
from repro.timeseries.pattern import PatternSet

if TYPE_CHECKING:  # pragma: no cover - import for type checking only
    from repro.distributed.basestation import BaseStationNode


@dataclass(frozen=True)
class MatchingOutcome:
    """Every station's reports and each shard's charged time for one matching phase."""

    #: ``station_id -> reports``, in station order.
    reports: dict[str, list[object]]
    #: One charged wall time per (non-empty) shard, so ``len`` is the shard count.
    shard_times: list[float]


def partition_round_robin(count: int, shard_count: int) -> list[list[int]]:
    """Distribute ``count`` item indices over ``shard_count`` shards round-robin.

    Round-robin keeps shards balanced when station sizes correlate with
    position (e.g. central stations first); order within a shard follows the
    original order, so results stay deterministic.
    """
    if shard_count <= 0:
        raise ValueError(f"shard_count must be positive, got {shard_count}")
    shards = [list(range(start, count, shard_count)) for start in range(shard_count)]
    return [shard for shard in shards if shard]


def _match_shard(
    protocol: MatchingProtocol,
    stations: Sequence[tuple[str, PatternSet]],
    artifact: object | None,
) -> tuple[list[list[object]], float]:
    """One ``match_stations`` call and its wall time (module-level: pools pickle it)."""
    start = time.perf_counter()
    reports = protocol.match_stations(stations, artifact)
    return reports, time.perf_counter() - start


@dataclass(frozen=True)
class SharedArtifactToken:
    """Handle to a wire-encoded artifact parked in shared memory.

    The process executor ships this small token instead of pickling the
    artifact into every shard submission: workers attach the named segment and
    decode the canonical bytes in place (the wire layer reads straight from
    the shared buffer).  ``size``/``crc`` identify the content, so a worker's
    decode cache keyed on them survives across rounds even though the segment
    name changes.
    """

    name: str
    size: int
    crc: int


def export_shared_artifact(
    artifact: object,
) -> "tuple[SharedArtifactToken, shared_memory.SharedMemory]":
    """Encode ``artifact`` once and park the bytes in a shared-memory segment.

    Raises :class:`~repro.wire.errors.UnsupportedWireTypeError` when the
    artifact has no wire encoding.  The caller owns the returned segment and
    must ``close()`` + ``unlink()`` it once every worker has finished the
    round.
    """
    from repro import wire

    data = wire.encode_cached(artifact)
    segment = shared_memory.SharedMemory(create=True, size=max(1, len(data)))
    segment.buf[: len(data)] = data
    token = SharedArtifactToken(
        name=segment.name,
        size=len(data),
        crc=zlib.crc32(data),
    )
    return token, segment


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without enrolling it in the resource tracker.

    The exporting parent owns the segment's lifecycle (it unlinks after the
    round); a worker that merely attaches must not register it, or the
    worker's resource tracker warns about "leaked" segments at shutdown that
    the parent already removed.  Python 3.13 exposes ``track=False`` for
    exactly this; earlier versions need the registration undone by hand.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        # Python < 3.13: attach registers unconditionally.  Depending on fork
        # timing that lands in the parent's tracker (where a later unregister
        # would wrongly drop the parent's own entry) or spawns a fresh tracker
        # in the worker (which then warns about "leaks" the parent already
        # unlinked) — so suppress the registration call itself.  Workers are
        # single-threaded, making the swap race-free in practice.
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *_args: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


#: Worker-side single-entry decode cache: ``(size, crc) -> artifact``.
#: One entry suffices — a round broadcasts one artifact, and consecutive
#: rounds of a sweep reuse the entry when the artifact did not change.
_shared_artifact_cache: "tuple[tuple[int, int], object] | None" = None


def _load_shared_artifact(token: SharedArtifactToken) -> object:
    """Attach the segment and decode the artifact (cached per worker process)."""
    global _shared_artifact_cache
    from repro import wire

    key = (token.size, token.crc)
    cached = _shared_artifact_cache
    if cached is not None and cached[0] == key:
        return cached[1]
    segment = _attach_untracked(token.name)
    view = segment.buf[: token.size]
    try:
        if zlib.crc32(view) != token.crc:
            raise ValueError(
                f"shared artifact segment {token.name!r} does not match its "
                "token checksum"
            )
        # The wire layer reads straight from the shared buffer; decoded
        # objects materialize their own bytes, so nothing references the
        # segment once decode returns.
        artifact = wire.decode(view)
    finally:
        del view
        try:
            segment.close()
        except BufferError:  # pragma: no cover - decode error still in flight
            # The raising frame's traceback pins buffer views; the mapping is
            # released when the exception is collected (or at process exit).
            pass
    _shared_artifact_cache = (key, artifact)
    return artifact


def _match_shard_shared(
    protocol: MatchingProtocol,
    stations: Sequence[tuple[str, PatternSet]],
    token: SharedArtifactToken,
) -> tuple[list[list[object]], float]:
    """Worker entry point for the shared-memory artifact handoff."""
    return _match_shard(protocol, stations, _load_shared_artifact(token))


class ShardedStationRunner:
    """Partitions stations into shards and runs them on the selected executor.

    Pool executors are created lazily on first use and **reused across
    :meth:`run` calls** (a Figure-4 sweep drives many rounds; re-forking a
    process pool per round would eat the parallelism gains), so call
    :meth:`close` — or use the runner as a context manager — when done.  An
    unclosed pool is still reclaimed at interpreter exit by
    ``concurrent.futures``' atexit handling.
    """

    def __init__(
        self,
        executor: str = "serial",
        shard_count: int = 0,
        max_workers: int | None = None,
    ) -> None:
        if executor not in EXECUTOR_CHOICES:
            raise ValueError(
                f"executor must be one of {EXECUTOR_CHOICES}, got {executor!r}"
            )
        if shard_count < 0:
            raise ValueError(f"shard_count must be >= 0 (0 = auto), got {shard_count}")
        if max_workers is not None and max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self._executor = executor
        self._shard_count = shard_count
        self._max_workers = max_workers
        self._pool: Executor | None = None

    @property
    def executor(self) -> str:
        """The configured executor backend name."""
        return self._executor

    def resolve_worker_count(self) -> int:
        """Number of concurrent workers the pool executors will use."""
        if self._max_workers is not None:
            return self._max_workers
        return os.cpu_count() or 1

    def resolve_shard_count(self, station_count: int) -> int:
        """Effective shard count for ``station_count`` stations.

        ``shard_count == 0`` (auto) means one shard per station under the
        serial executor — the paper's one-thread-per-station latency model,
        each station charged an equal share of the round's one call — and
        one shard per worker under the pool executors, so each worker
        receives one contiguous stream of work.
        """
        if station_count == 0:
            return 0
        if self._shard_count:
            return min(self._shard_count, station_count)
        if self._executor == "serial":
            return station_count
        return min(self.resolve_worker_count(), station_count)

    def run(
        self,
        protocol: MatchingProtocol,
        stations: "Sequence[BaseStationNode]",
        artifact: object | None,
    ) -> MatchingOutcome:
        """Match every station: one ``match_stations`` call per unit of sequential work."""
        count = len(stations)
        if not count:
            return MatchingOutcome({}, [])
        shard_count = self.resolve_shard_count(count)
        payload = [(station.node_id, station.patterns) for station in stations]
        station_ids = [station_id for station_id, _patterns in payload]
        if self._executor == "serial":
            # The shards run back to back in-process, so they are one call:
            # each is charged the call's wall time in proportion to its
            # round-robin share of the stations.
            reports, elapsed = _match_shard(protocol, payload, artifact)
            return MatchingOutcome(
                dict(zip(station_ids, reports)),
                [
                    elapsed * len(range(index, count, shard_count)) / count
                    for index in range(shard_count)
                ],
            )
        shards = partition_round_robin(count, shard_count)
        jobs = [[payload[index] for index in indices] for indices in shards]
        pool = self._ensure_pool()
        if self._executor == "process" and artifact is not None:
            # Shared-memory handoff: one encode of the artifact total, a tiny
            # token per shard, instead of pickling the artifact per submission.
            token, segment = export_shared_artifact(artifact)
            try:
                futures = [
                    pool.submit(_match_shard_shared, protocol, job, token) for job in jobs
                ]
                results = [future.result() for future in futures]
            finally:
                segment.close()
                segment.unlink()
        else:
            futures = [pool.submit(_match_shard, protocol, job, artifact) for job in jobs]
            # Collect in submission order: determinism comes from station
            # ids, not completion order.
            results = [future.result() for future in futures]
        ordered: list = [None] * count
        for indices, (reports, _elapsed) in zip(shards, results):
            for index, station_reports in zip(indices, reports):
                ordered[index] = station_reports
        return MatchingOutcome(
            dict(zip(station_ids, ordered)), [elapsed for _reports, elapsed in results]
        )

    def _ensure_pool(self) -> Executor:
        if self._pool is None:
            workers = self.resolve_worker_count()
            if self._executor == "thread":
                self._pool = ThreadPoolExecutor(max_workers=workers)
            else:
                self._pool = ProcessPoolExecutor(max_workers=workers)
        return self._pool

    def close(self) -> None:
        """Shut down the pool (no-op for the serial executor or before first use)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ShardedStationRunner":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()
