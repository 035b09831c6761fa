"""Workload construction: distributed datasets and query workloads.

A :class:`DistributedDataset` is the synthetic stand-in for the paper's base-station
storage: for every station, the local patterns of the users it served; the global
pattern of a user is the per-interval sum of their local fragments and is never
stored at any single station.  A :class:`QueryWorkload` is a batch of query patterns
(the "preferred customers" of the motivating call-package scenario).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.datagen.categories import CategoryProfile, PlaceSlot, default_categories
from repro.datagen.city import CityGrid
from repro.datagen.generator import generate_user_interval_values, hour_of_day_for_interval
from repro.datagen.mobility import UserMobility, assign_mobility
from repro.timeseries.pattern import GlobalPattern, LocalPattern, Pattern, PatternSet
from repro.timeseries.query import QueryPattern
from repro.timeseries.similarity import pattern_epsilon_similar
from repro.utils.rng import make_rng
from repro.utils.validation import require_non_empty, require_non_negative, require_positive


@dataclass(frozen=True)
class UserProfile:
    """A synthetic subscriber: identity, ground-truth category, mobility and clique.

    ``clique_assignment`` records the (home, work, other) clique indices the user was
    drawn from; users sharing all three indices (and the category) have ε-similar
    global patterns.  ``is_decoy`` marks injected adversarial users (e.g. the
    over-splitting users of the paper's {3,4,5}×3 example) that should never be
    selected as query exemplars.
    """

    user_id: str
    category_name: str
    mobility: UserMobility
    clique_assignment: tuple[int, int, int] = (0, 0, 0)
    is_decoy: bool = False


@dataclass(frozen=True)
class DatasetSpec:
    """Parameters controlling synthetic dataset construction."""

    users_per_category: int = 25
    station_count: int = 8
    days: int = 1
    intervals_per_day: int = 24
    noise_level: int = 1
    colocation_probability: float = 0.2
    #: Number of per-place cliques each category is split into.  Members of the same
    #: clique triple are mutually ε-similar; different cliques differ by
    #: ``clique_value_gap`` per active interval (well beyond ε), which keeps the true
    #: match set of a query small relative to the population.
    cliques_per_place: int = 2
    #: Value offset between consecutive cliques (must exceed 2·noise + ε to separate).
    clique_value_gap: int = 6
    #: Injected "over-splitting" users per category whose fragment at each of two
    #: stations equals a full category-shaped pattern (the paper's over-matching
    #: false-positive case for plain Bloom filters).
    replicated_decoys_per_category: int = 2
    seed: int = 7
    categories: tuple[CategoryProfile, ...] = field(
        default_factory=lambda: tuple(default_categories())
    )
    #: Optional per-category regular-user counts, aligned with ``categories``.
    #: When set it overrides the uniform ``users_per_category`` — the knob that
    #: lets a cohort of a size not divisible by the category count be realized
    #: *exactly* (remainder categories get one extra user) instead of rounded.
    category_user_counts: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        require_positive(self.users_per_category, "users_per_category")
        require_positive(self.station_count, "station_count")
        require_positive(self.days, "days")
        require_positive(self.intervals_per_day, "intervals_per_day")
        require_non_negative(self.noise_level, "noise_level")
        require_positive(self.cliques_per_place, "cliques_per_place")
        require_non_negative(self.clique_value_gap, "clique_value_gap")
        require_non_negative(self.replicated_decoys_per_category, "replicated_decoys_per_category")
        require_non_empty(self.categories, "categories")
        if self.category_user_counts is not None:
            if len(self.category_user_counts) != len(self.categories):
                raise ValueError(
                    f"category_user_counts must have one entry per category "
                    f"({len(self.categories)}), got {len(self.category_user_counts)}"
                )
            for count in self.category_user_counts:
                require_non_negative(count, "category_user_counts entry")
            if sum(self.category_user_counts) <= 0:
                raise ValueError("category_user_counts must name at least one user")

    def regular_users_in(self, category_index: int) -> int:
        """Number of regular (non-decoy) users built for one category."""
        if self.category_user_counts is not None:
            return int(self.category_user_counts[category_index])
        return self.users_per_category

    @property
    def interval_count(self) -> int:
        """Total number of time intervals covered by each pattern."""
        return self.days * self.intervals_per_day

    @property
    def user_count(self) -> int:
        """Total number of synthetic users (regular users plus decoys)."""
        regular = sum(
            self.regular_users_in(index) for index in range(len(self.categories))
        )
        return regular + self.replicated_decoys_per_category * len(self.categories)


class DistributedDataset:
    """Local patterns distributed across base stations, with ground-truth metadata."""

    def __init__(
        self,
        station_ids: Sequence[str],
        users: Mapping[str, UserProfile],
        local_patterns: Mapping[str, Mapping[str, LocalPattern]],
        pattern_length: int,
        intervals_per_day: int,
    ) -> None:
        require_non_empty(station_ids, "station_ids")
        require_non_empty(users, "users")
        require_positive(pattern_length, "pattern_length")
        require_positive(intervals_per_day, "intervals_per_day")
        self._station_ids = list(station_ids)
        # Membership beside the ordered list: both checks below run once per
        # station, and a list scan would make each O(stations).
        self._station_set = frozenset(self._station_ids)
        self._users = dict(users)
        self._local: dict[str, dict[str, LocalPattern]] = {
            station: dict(per_station) for station, per_station in local_patterns.items()
        }
        for station in self._local:
            if station not in self._station_set:
                raise ValueError(f"local patterns reference unknown station {station!r}")
        self._pattern_length = int(pattern_length)
        self._intervals_per_day = int(intervals_per_day)
        self._global_cache: dict[str, GlobalPattern] = {}

    # -- basic accessors -------------------------------------------------------

    @property
    def station_ids(self) -> list[str]:
        """All base-station identifiers."""
        return list(self._station_ids)

    @property
    def user_ids(self) -> list[str]:
        """All subscriber identifiers."""
        return list(self._users.keys())

    @property
    def pattern_length(self) -> int:
        """Number of intervals in every pattern."""
        return self._pattern_length

    @property
    def intervals_per_day(self) -> int:
        """Intervals per day (period of the daily cycle)."""
        return self._intervals_per_day

    @property
    def user_count(self) -> int:
        """Number of subscribers."""
        return len(self._users)

    @property
    def station_count(self) -> int:
        """Number of base stations."""
        return len(self._station_ids)

    def profile(self, user_id: str) -> UserProfile:
        """Ground-truth profile of ``user_id``."""
        if user_id not in self._users:
            raise KeyError(f"unknown user {user_id!r}")
        return self._users[user_id]

    def category_of(self, user_id: str) -> str:
        """Ground-truth category name of ``user_id``."""
        return self.profile(user_id).category_name

    def query_categories(self) -> list[str]:
        """Sorted names of the categories a query can sample: those with a non-decoy user."""
        return sorted(
            {profile.category_name for profile in self._users.values() if not profile.is_decoy}
        )

    def users_in_category(self, category_name: str) -> list[str]:
        """All users whose ground-truth category is ``category_name``."""
        return [
            user_id
            for user_id, profile in self._users.items()
            if profile.category_name == category_name
        ]

    # -- pattern access --------------------------------------------------------

    def local_patterns_at(self, station_id: str) -> PatternSet:
        """Pattern set stored at ``station_id`` (empty if the station saw no traffic)."""
        if station_id not in self._station_set:
            raise KeyError(f"unknown station {station_id!r}")
        return PatternSet(self._local.get(station_id, {}).values())

    def local_patterns_for(self, user_id: str) -> list[LocalPattern]:
        """All local fragments recorded for ``user_id`` across stations."""
        if user_id not in self._users:
            raise KeyError(f"unknown user {user_id!r}")
        fragments = [
            per_station[user_id]
            for per_station in self._local.values()
            if user_id in per_station
        ]
        if not fragments:
            raise KeyError(f"user {user_id!r} has no recorded local patterns")
        return fragments

    def global_pattern(self, user_id: str) -> GlobalPattern:
        """The (never materialised at stations) global pattern of ``user_id``."""
        if user_id not in self._global_cache:
            self._global_cache[user_id] = GlobalPattern.from_locals(
                self.local_patterns_for(user_id)
            )
        return self._global_cache[user_id]

    # -- ground truth ----------------------------------------------------------

    def similar_users(self, pattern: Pattern, epsilon: float) -> set[str]:
        """Users whose *global* pattern is ε-similar (Eq. 2) to ``pattern``."""
        return {
            user_id
            for user_id in self._users
            if pattern_epsilon_similar(self.global_pattern(user_id), pattern, epsilon)
        }

    def __repr__(self) -> str:
        return (
            f"DistributedDataset(users={self.user_count}, stations={self.station_count}, "
            f"length={self._pattern_length})"
        )


def _clique_offsets(
    clique_assignment: tuple[int, int, int], clique_value_gap: int
) -> dict[PlaceSlot, int]:
    """Per-place value offsets implied by a clique assignment."""
    home, work, other = clique_assignment
    return {
        PlaceSlot.HOME: home * clique_value_gap,
        PlaceSlot.WORK: work * clique_value_gap,
        PlaceSlot.OTHER: other * clique_value_gap,
    }


def _split_values_by_station(
    values: list[int],
    category: CategoryProfile,
    mobility: UserMobility,
    intervals_per_day: int,
) -> dict[str, list[int]]:
    """Assign each interval's value to the station serving the user during it.

    Stations where the user recorded no activity at all are omitted (a base station
    has no record of a user who made no calls in its cell); the home station is kept
    even when empty so that every user has at least one fragment.
    """
    interval_count = len(values)
    per_station: dict[str, list[int]] = {}
    for interval_index, value in enumerate(values):
        hour = hour_of_day_for_interval(interval_index, intervals_per_day)
        place = category.place_at(hour)
        station = mobility.station_for(place)
        per_station.setdefault(station, [0] * interval_count)
        per_station[station][interval_index] = value
    non_empty = {
        station: station_values
        for station, station_values in per_station.items()
        if any(station_values)
    }
    if not non_empty:
        non_empty = {mobility.home_station: [0] * interval_count}
    return non_empty


def build_dataset(spec: DatasetSpec) -> DistributedDataset:
    """Construct a synthetic distributed dataset according to ``spec``.

    For every user the generator draws a category- and clique-shaped global series,
    then splits each interval's value to the station the user is attached to during
    that interval (home/work/other per the category schedule and the user's mobility
    assignment).  In addition to regular users, each category receives a few
    "over-splitting" decoys whose pattern is replicated in full at two different
    stations — the paper's canonical plain-Bloom-filter false positive.
    """
    grid = CityGrid(
        width_km=10.0 * spec.station_count,
        height_km=10.0,
        station_spacing_km=10.0,
    )
    station_ids = grid.station_ids[: spec.station_count]
    if len(station_ids) < spec.station_count:
        station_ids = [f"bs-extra-{i:03d}" for i in range(spec.station_count)]

    users: dict[str, UserProfile] = {}
    local: dict[str, dict[str, LocalPattern]] = {station: {} for station in station_ids}
    interval_count = spec.interval_count

    for category_index, category in enumerate(spec.categories):
        for user_index in range(spec.regular_users_in(category_index)):
            user_id = f"{category.name}-{user_index:04d}"
            user_rng = make_rng(spec.seed, "user", user_id)
            mobility = assign_mobility(
                user_id,
                category,
                station_ids,
                user_rng,
                colocation_probability=spec.colocation_probability,
            )
            clique_assignment = tuple(
                int(user_rng.integers(0, spec.cliques_per_place)) for _ in range(3)
            )
            values = generate_user_interval_values(
                category,
                interval_count,
                spec.intervals_per_day,
                user_rng,
                noise_level=spec.noise_level,
                place_offsets=_clique_offsets(clique_assignment, spec.clique_value_gap),
            )
            per_station_values = _split_values_by_station(
                values, category, mobility, spec.intervals_per_day
            )
            users[user_id] = UserProfile(
                user_id=user_id,
                category_name=category.name,
                mobility=mobility,
                clique_assignment=clique_assignment,
            )
            for station, station_values in per_station_values.items():
                local[station][user_id] = LocalPattern(user_id, station_values, station)

        for decoy_index in range(spec.replicated_decoys_per_category):
            user_id = f"decoy-replicated-{category.name}-{decoy_index:03d}"
            decoy_rng = make_rng(spec.seed, "decoy", user_id)
            clique_assignment = tuple(
                int(decoy_rng.integers(0, spec.cliques_per_place)) for _ in range(3)
            )
            values = generate_user_interval_values(
                category,
                interval_count,
                spec.intervals_per_day,
                decoy_rng,
                noise_level=spec.noise_level,
                place_offsets=_clique_offsets(clique_assignment, spec.clique_value_gap),
            )
            first = station_ids[int(decoy_rng.integers(0, len(station_ids)))]
            second = first
            if len(station_ids) > 1:
                while second == first:
                    second = station_ids[int(decoy_rng.integers(0, len(station_ids)))]
            mobility = UserMobility(
                user_id=user_id,
                home_station=first,
                work_station=second,
                other_station=first,
            )
            users[user_id] = UserProfile(
                user_id=user_id,
                category_name=category.name,
                mobility=mobility,
                clique_assignment=clique_assignment,
                is_decoy=True,
            )
            # The full category-shaped series is stored at *both* stations, so each
            # fragment looks exactly like a complete matching pattern even though the
            # aggregated global pattern is twice the query's.
            local[first][user_id] = LocalPattern(user_id, values, first)
            if second != first:
                local[second][user_id] = LocalPattern(user_id, values, second)

    return DistributedDataset(
        station_ids=station_ids,
        users=users,
        local_patterns=local,
        pattern_length=interval_count,
        intervals_per_day=spec.intervals_per_day,
    )


@dataclass(frozen=True)
class QueryWorkload:
    """A batch of query patterns with the ε they should be answered under."""

    queries: tuple[QueryPattern, ...]
    epsilon: float

    def __post_init__(self) -> None:
        require_non_empty(self.queries, "queries")
        require_non_negative(self.epsilon, "epsilon")

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)


def build_query_workload(
    dataset: DistributedDataset,
    query_count: int,
    epsilon: float,
    seed: int = 11,
    categories: Iterable[str] | None = None,
) -> QueryWorkload:
    """Build a query workload by sampling existing users as "preferred customers".

    Queries are drawn round-robin across categories (by default every category
    with a non-decoy user, as decoys are never exemplars) so that every category is
    represented, matching the paper's service-provider scenario where each campaign
    targets one communication profile.  Within a category, users whose pattern is
    split across the most base stations are preferred as exemplars: the service
    provider supplies the query's local patterns, and the finer the supplied
    breakdown the more candidate partitions the combination step (Eq. 4) can cover.
    """
    require_positive(query_count, "query_count")
    require_non_negative(epsilon, "epsilon")
    category_names = (
        list(categories) if categories is not None else dataset.query_categories()
    )
    require_non_empty(category_names, "categories")
    rng = make_rng(seed, "query-workload")

    def exemplar_pool(category_name: str) -> list[str]:
        members = [
            user_id
            for user_id in sorted(dataset.users_in_category(category_name))
            if not dataset.profile(user_id).is_decoy
        ]
        if not members:
            raise ValueError(f"category {category_name!r} has no users in the dataset")
        best_split = max(len(dataset.local_patterns_for(user_id)) for user_id in members)
        return [
            user_id
            for user_id in members
            if len(dataset.local_patterns_for(user_id)) == best_split
        ]

    per_category_users = {name: exemplar_pool(name) for name in category_names}
    queries: list[QueryPattern] = []
    for query_index in range(query_count):
        category_name = category_names[query_index % len(category_names)]
        members = per_category_users[category_name]
        user_id = members[int(rng.integers(0, len(members)))]
        locals_ = dataset.local_patterns_for(user_id)
        queries.append(QueryPattern(f"query-{query_index:04d}-{user_id}", locals_))
    return QueryWorkload(queries=tuple(queries), epsilon=epsilon)
