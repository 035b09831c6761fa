"""Lazy, memory-bounded station-batch generation.

:func:`repro.datagen.scale.build_scale_dataset` already builds large datasets
fast, but it materializes *every* station's local patterns up front — a
million-user scenario holds the whole city in RAM even when a drive only ever
touches a handful of stations per round.  :class:`StreamingStationSource` is
the open-system answer: each station's batch of local patterns is generated on
demand, kept in a bounded LRU-resident set, and retired (or evicted) when the
drive moves on.  A scenario can therefore *declare* 1M+ users while the
resident set stays at ``max_resident`` stations.

The layout is arithmetic, so any station's batch is computable independently
in O(users_per_station × fragments_per_user):

* user ``u`` has home station ``u % station_count`` — station ``s`` owns users
  ``s, s + S, s + 2S, …``;
* fragment ``j`` of every user lands on ``(home + offset_j) % S``, with the
  global offset table drawn once from ``derive_seed(seed, "stream-offsets")``
  — so the fragments stored *at* station ``t`` come from the users homed at
  ``(t - offset_j) % S``, no global scan required;
* each user's activity (phase, value, active slots) comes from a private
  ``random.Random(derive_seed(seed, "stream-user", user_id))`` stream.

Everything derives from the source seed through
:func:`repro.utils.rng.derive_seed` and the standard-library :mod:`random`
module, so batches are identical across processes, platforms, access orders
and NumPy availability — the same determinism contract as the eager builders.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Iterable

from repro.datagen.source import StationSourceBase
from repro.timeseries.pattern import LocalPattern, PatternSet
from repro.timeseries.query import QueryPattern
from repro.utils.rng import derive_seed, seed_deriver
from repro.utils.validation import require_positive


class StreamingStationSource(StationSourceBase):
    """Seed-derived station batches, generated lazily under a resident cap.

    ``station_batch`` (and the :class:`DistributedDataset`-shaped alias
    ``local_patterns_at``) builds a station's local patterns on first touch
    and serves later touches from an LRU cache of at most ``max_resident``
    stations; ``retire`` drops a station explicitly once a drive is done with
    it.  ``built_count`` / ``eviction_count`` expose the generate/retire
    traffic so tests can pin the bounded-resident-set claim.
    """

    def __init__(
        self,
        station_count: int,
        users_per_station: int = 1,
        pattern_length: int = 24,
        intervals_per_day: int = 24,
        fragments_per_user: int = 2,
        active_intervals: int = 6,
        seed: int = 7,
        max_resident: int = 64,
    ) -> None:
        require_positive(station_count, "station_count")
        require_positive(users_per_station, "users_per_station")
        require_positive(pattern_length, "pattern_length")
        require_positive(intervals_per_day, "intervals_per_day")
        require_positive(fragments_per_user, "fragments_per_user")
        require_positive(active_intervals, "active_intervals")
        require_positive(max_resident, "max_resident")
        if fragments_per_user > station_count:
            raise ValueError(
                f"fragments_per_user ({fragments_per_user}) cannot exceed "
                f"station_count ({station_count})"
            )
        if active_intervals > pattern_length:
            raise ValueError(
                f"active_intervals ({active_intervals}) cannot exceed "
                f"pattern_length ({pattern_length})"
            )
        self._station_count = station_count
        self._users_per_station = users_per_station
        self._pattern_length = pattern_length
        self._intervals_per_day = intervals_per_day
        self._seed = seed
        self._max_resident = max_resident
        self._station_ids = [f"s{index:05d}" for index in range(station_count)]
        self._station_index = {sid: i for i, sid in enumerate(self._station_ids)}
        # Global fragment-offset table: one draw, shared by every user, so
        # "who stores at station t" is pure arithmetic.
        offset_rng = random.Random(derive_seed(seed, "stream-offsets", station_count))
        offsets = [0]
        candidates = list(range(1, station_count))
        while len(offsets) < fragments_per_user:
            offsets.append(candidates.pop(offset_rng.randrange(len(candidates))))
        self._offsets = tuple(offsets)
        # Fragment j covers steps bounds[j]..bounds[j+1] of a user's active
        # run, the last one taking the remainder; an empty span means
        # fragment j never holds activity, for any user.
        per_fragment = max(1, active_intervals // fragments_per_user)
        bounds = [
            min(active_intervals, index * per_fragment)
            for index in range(fragments_per_user)
        ] + [active_intervals]
        self._spans = tuple(range(begin, end) for begin, end in zip(bounds, bounds[1:]))
        self._user_seed = seed_deriver(seed, "stream-user")
        self._resident: "OrderedDict[str, dict[str, LocalPattern]]" = OrderedDict()
        self._built = 0
        self._evicted = 0

    # -- identity ---------------------------------------------------------------

    @property
    def station_ids(self) -> list[str]:
        """All station identifiers (the full declared city, never resident)."""
        return list(self._station_ids)

    @property
    def user_count(self) -> int:
        """Total declared users — none of them resident until touched."""
        return self._station_count * self._users_per_station

    @property
    def pattern_length(self) -> int:
        """Number of intervals in every pattern."""
        return self._pattern_length

    def user_ids_for(self, station_id: str) -> list[str]:
        """The users homed at ``station_id`` (who anchor fragment 0 there)."""
        home = self._station_index[station_id]
        return [
            f"u{home + step * self._station_count:07d}"
            for step in range(self._users_per_station)
        ]

    # -- per-user generation (no station state touched) -------------------------

    def _activity(self, user_id: str, rng: random.Random) -> tuple[int, int]:
        """``(phase, base value)``: the first draws of ``user_id``'s private stream.

        ``rng`` is re-seeded here, so one generator serves a whole batch.
        """
        rng.seed(self._user_seed(user_id))
        return rng.randrange(self._pattern_length), 1 + rng.randrange(7)

    def _fragment_values(self, span: range, phase: int, base_value: int) -> list[int]:
        """One fragment's values: ``base_value`` on the span's slots of the active run."""
        values = [0] * self._pattern_length
        for step in span:
            values[(phase + step) % self._pattern_length] = base_value
        return values

    def fragments_of(self, user_id: str) -> list[LocalPattern]:
        """All local fragments of one user, derived without any station batch.

        Only the canonical id spelling ``f"u{index:07d}"`` of a declared user
        is accepted; anything else raises ``KeyError``.
        """
        try:
            user_index = int(user_id[1:])
        except (TypeError, ValueError):
            raise KeyError(f"unknown user {user_id!r}") from None
        if not 0 <= user_index < self.user_count or user_id != f"u{user_index:07d}":
            raise KeyError(f"unknown user {user_id!r}")
        home = user_index % self._station_count
        phase, base_value = self._activity(user_id, random.Random())
        return [
            LocalPattern(
                user_id,
                self._fragment_values(span, phase, base_value),
                self._station_ids[(home + offset) % self._station_count],
            )
            for offset, span in zip(self._offsets, self._spans)
            if span
        ]

    def query_for(self, user_id: str) -> QueryPattern:
        """A query whose local patterns are ``user_id``'s fragments.

        Derived in O(fragments) from the user's seed stream alone — asking for
        a query never builds (or touches) any station batch.
        """
        return QueryPattern(f"q-{user_id}", tuple(self.fragments_of(user_id)))

    def sample_queries(
        self, query_count: int, seed: "int | None" = None
    ) -> list[QueryPattern]:
        """Deterministically sample ``query_count`` users as exemplar queries.

        The draw derives from the *source's own* seed stream by default, so
        differently-seeded sources never silently share query draws; pass
        ``seed`` only to decouple the sample from the source seed.
        """
        require_positive(query_count, "query_count")
        if query_count > self.user_count:
            raise ValueError(
                f"query_count ({query_count}) exceeds the declared "
                f"{self.user_count} users"
            )
        base = self._seed if seed is None else seed
        rng = random.Random(derive_seed(base, "stream-queries", query_count))
        chosen = rng.sample(range(self.user_count), query_count)
        return [self.query_for(f"u{index:07d}") for index in sorted(chosen)]

    # -- exemplar hooks (the engine-facing StationSource surface) ----------------

    @property
    def exemplar_count(self) -> int:
        """Every declared user is addressable as an exemplar query."""
        return self.user_count

    def exemplar_query(self, index: int) -> QueryPattern:
        """The ``index``-th declared user's own fragments as a query.

        O(fragments) from the user's seed stream — asking for an exemplar
        never builds (or touches) any station batch.
        """
        if not 0 <= index < self.user_count:
            raise IndexError(
                f"exemplar index {index} out of range for {self.user_count} users"
            )
        return self.query_for(f"u{index:07d}")

    # -- lazy station batches ----------------------------------------------------

    def _build_batch(self, station_id: str) -> dict[str, LocalPattern]:
        target = self._station_index[station_id]
        rng = random.Random()
        batch: dict[str, LocalPattern] = {}
        # Fragment j at station `target` comes from users homed at
        # (target - offset_j) mod S — arithmetic, not a scan — and only that
        # fragment of theirs is derived.
        for offset, span in zip(self._offsets, self._spans):
            if not span:
                continue
            home = (target - offset) % self._station_count
            for user_index in range(home, self.user_count, self._station_count):
                user_id = f"u{user_index:07d}"
                phase, base_value = self._activity(user_id, rng)
                batch[user_id] = LocalPattern(
                    user_id, self._fragment_values(span, phase, base_value), station_id
                )
        return batch

    def station_batch(self, station_id: str) -> dict[str, LocalPattern]:
        """The local patterns stored at ``station_id`` (built lazily, LRU-cached)."""
        if station_id not in self._station_index:
            raise KeyError(f"unknown station {station_id!r}")
        if station_id in self._resident:
            self._resident.move_to_end(station_id)
            return self._resident[station_id]
        batch = self._build_batch(station_id)
        self._built += 1
        self._resident[station_id] = batch
        while len(self._resident) > self._max_resident:
            self._resident.popitem(last=False)
            self._evicted += 1
        return batch

    def local_patterns_at(self, station_id: str) -> PatternSet:
        """:class:`DistributedDataset`-shaped accessor over the lazy batches."""
        return PatternSet(self.station_batch(station_id).values())

    def retire(self, station_id: str) -> bool:
        """Drop a station's batch from the resident set; True if it was held."""
        if station_id in self._resident:
            del self._resident[station_id]
            return True
        return False

    @property
    def resident_count(self) -> int:
        """Stations currently held in the resident set (≤ ``max_resident``)."""
        return len(self._resident)

    @property
    def resident_cap(self) -> int:
        """The LRU residency bound this source was configured with."""
        return self._max_resident

    @property
    def built_count(self) -> int:
        """How many station batches were generated (cache misses)."""
        return self._built

    @property
    def eviction_count(self) -> int:
        """How many resident batches the LRU cap pushed out."""
        return self._evicted


def iter_station_batches(
    source: StreamingStationSource, station_ids: "Iterable[str] | None" = None
) -> "Iterable[tuple[str, PatternSet]]":
    """Generate-encode-retire iteration: yield each station's batch, then retire it.

    The canonical bounded-memory sweep over a declared city: at any point at
    most the in-flight station (plus whatever the caller pinned) is resident.
    """
    for station_id in station_ids if station_ids is not None else source.station_ids:
        yield station_id, source.local_patterns_at(station_id)
        source.retire(station_id)
