"""Unit tests for dataset and query-workload construction."""

import pytest

from repro.datagen.workload import (
    DatasetSpec,
    DistributedDataset,
    build_dataset,
    build_query_workload,
)
from repro.timeseries.pattern import LocalPattern


class TestDatasetSpec:
    def test_defaults_are_valid(self):
        spec = DatasetSpec()
        assert spec.interval_count == 24
        assert spec.user_count > 0

    def test_interval_count(self):
        assert DatasetSpec(days=2, intervals_per_day=48).interval_count == 96

    def test_user_count_includes_decoys(self):
        spec = DatasetSpec(users_per_category=5, replicated_decoys_per_category=2)
        assert spec.user_count == (5 + 2) * len(spec.categories)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            DatasetSpec(users_per_category=0)
        with pytest.raises(ValueError):
            DatasetSpec(station_count=0)
        with pytest.raises(ValueError):
            DatasetSpec(cliques_per_place=0)

    def test_category_user_counts_overrides_the_uniform_split(self):
        spec = DatasetSpec(users_per_category=5)
        counts = tuple(
            3 + (1 if index < 2 else 0) for index in range(len(spec.categories))
        )
        spec = DatasetSpec(users_per_category=5, category_user_counts=counts)
        assert [
            spec.regular_users_in(index) for index in range(len(spec.categories))
        ] == list(counts)
        assert spec.user_count == sum(counts) + 2 * len(spec.categories)

    def test_category_user_counts_validation(self):
        category_count = len(DatasetSpec().categories)
        with pytest.raises(ValueError, match="one entry per category"):
            DatasetSpec(category_user_counts=(1,))
        with pytest.raises(ValueError):
            DatasetSpec(category_user_counts=(-1,) * category_count)
        with pytest.raises(ValueError, match="at least one user"):
            DatasetSpec(category_user_counts=(0,) * category_count)

    def test_uneven_category_counts_build_exactly(self):
        category_count = len(DatasetSpec().categories)
        counts = tuple(
            2 + (1 if index < 1 else 0) for index in range(category_count)
        )
        spec = DatasetSpec(
            users_per_category=2,
            station_count=4,
            category_user_counts=counts,
            replicated_decoys_per_category=0,
        )
        dataset = build_dataset(spec)
        assert len(dataset.user_ids) == sum(counts)
        per_category = [
            len(dataset.users_in_category(category.name))
            for category in spec.categories
        ]
        assert per_category == list(counts)


class TestBuildDataset:
    def test_dataset_shape(self, small_dataset, small_spec):
        assert small_dataset.station_count == small_spec.station_count
        assert small_dataset.user_count == small_spec.user_count
        assert small_dataset.pattern_length == small_spec.interval_count

    def test_every_user_has_local_patterns(self, small_dataset):
        for user_id in small_dataset.user_ids:
            fragments = small_dataset.local_patterns_for(user_id)
            assert fragments
            assert all(isinstance(f, LocalPattern) for f in fragments)

    def test_global_pattern_is_sum_of_fragments(self, small_dataset):
        for user_id in small_dataset.user_ids[:10]:
            fragments = small_dataset.local_patterns_for(user_id)
            summed = [0] * small_dataset.pattern_length
            for fragment in fragments:
                for index, value in enumerate(fragment.values):
                    summed[index] += value
            assert list(small_dataset.global_pattern(user_id).values) == summed

    def test_fragments_stored_at_distinct_stations(self, small_dataset):
        for user_id in small_dataset.user_ids[:10]:
            stations = [f.station_id for f in small_dataset.local_patterns_for(user_id)]
            assert len(stations) == len(set(stations))

    def test_no_all_zero_fragments_unless_only_fragment(self, small_dataset):
        for user_id in small_dataset.user_ids:
            fragments = small_dataset.local_patterns_for(user_id)
            if len(fragments) > 1:
                assert all(any(fragment.values) for fragment in fragments)

    def test_decoys_present_and_marked(self, small_dataset):
        decoys = [u for u in small_dataset.user_ids if small_dataset.profile(u).is_decoy]
        assert decoys
        for decoy in decoys:
            fragments = small_dataset.local_patterns_for(decoy)
            assert len(fragments) == 2
            assert fragments[0].values == fragments[1].values

    def test_same_clique_members_have_identical_globals_without_noise(self, small_dataset):
        by_group = {}
        for user_id in small_dataset.user_ids:
            profile = small_dataset.profile(user_id)
            if profile.is_decoy:
                continue
            key = (profile.category_name, profile.clique_assignment)
            by_group.setdefault(key, []).append(user_id)
        multi_member = [members for members in by_group.values() if len(members) > 1]
        assert multi_member
        for members in multi_member:
            reference = small_dataset.global_pattern(members[0]).values
            assert all(
                small_dataset.global_pattern(m).values == reference for m in members[1:]
            )

    def test_different_cliques_differ(self, small_dataset):
        # Cliques whose differing place slot carries no activity (e.g. a retiree's
        # work slot) legitimately coincide, so the check is that every category with
        # several cliques exhibits at least two distinct global shapes.
        by_category = {}
        for user_id in small_dataset.user_ids:
            profile = small_dataset.profile(user_id)
            if profile.is_decoy:
                continue
            by_category.setdefault(profile.category_name, {}).setdefault(
                profile.clique_assignment, user_id
            )
        checked = 0
        for cliques in by_category.values():
            if len(cliques) < 2:
                continue
            checked += 1
            patterns = {
                small_dataset.global_pattern(user_id).values for user_id in cliques.values()
            }
            assert len(patterns) >= 2
        assert checked > 0

    def test_deterministic_given_seed(self, small_spec):
        a = build_dataset(small_spec)
        b = build_dataset(small_spec)
        assert a.user_ids == b.user_ids
        for user_id in a.user_ids[:5]:
            assert a.global_pattern(user_id).values == b.global_pattern(user_id).values

    def test_users_in_category(self, small_dataset):
        members = small_dataset.users_in_category("student")
        assert members
        assert all(small_dataset.category_of(u) == "student" for u in members)

    def test_unknown_user_rejected(self, small_dataset):
        with pytest.raises(KeyError):
            small_dataset.profile("ghost")
        with pytest.raises(KeyError):
            small_dataset.local_patterns_for("ghost")

    def test_unknown_station_rejected(self, small_dataset):
        with pytest.raises(KeyError):
            small_dataset.local_patterns_at("bs-unknown")

    def test_similar_users_contains_self(self, small_dataset):
        user_id = small_dataset.user_ids[0]
        similar = small_dataset.similar_users(small_dataset.global_pattern(user_id), 0)
        assert user_id in similar

    def test_total_raw_size_positive(self, small_dataset):
        assert small_dataset.total_raw_size_bytes() > 0


class TestDistributedDatasetValidation:
    def test_rejects_unknown_station_reference(self):
        local = {"bs-x": {"u": LocalPattern("u", [1], "bs-x")}}
        from repro.datagen.mobility import UserMobility
        from repro.datagen.workload import UserProfile

        users = {
            "u": UserProfile("u", "student", UserMobility("u", "bs-x", "bs-x", "bs-x"))
        }
        with pytest.raises(ValueError, match="unknown station"):
            DistributedDataset(["bs-a"], users, local, 1, 24)


class _CountingId(str):
    """A station id that counts the equality tests made on it."""

    comparisons = 0
    __hash__ = str.__hash__

    def __eq__(self, other):
        _CountingId.comparisons += 1
        return str.__eq__(self, other)


class TestStationLookupsStayConstant:
    def _comparisons_per_station(self, count: int) -> float:
        from repro.datagen.mobility import UserMobility
        from repro.datagen.workload import UserProfile

        stations = [_CountingId(f"bs-{index}") for index in range(count)]
        mobility = UserMobility("u", "bs-0", "bs-0", "bs-0")
        users = {"u": UserProfile("u", "student", mobility)}
        local = {station: {"u": LocalPattern("u", [1], station)} for station in stations}
        _CountingId.comparisons = 0
        dataset = DistributedDataset(stations, users, local, 1, 24)
        for station in stations:
            # An equal id that is not the same object, as a caller would pass.
            dataset.local_patterns_at(_CountingId(str(station)))
        return _CountingId.comparisons / count

    def test_build_and_lookups_do_constant_work_per_station(self):
        # A list scan per check made this grow with the station count.
        assert self._comparisons_per_station(1000) == self._comparisons_per_station(250)


class TestBuildQueryWorkload:
    def test_query_count(self, small_dataset):
        workload = build_query_workload(small_dataset, 5, epsilon=0)
        assert len(workload) == 5

    def test_queries_cover_categories_round_robin(self, small_dataset):
        workload = build_query_workload(small_dataset, 6, epsilon=0)
        categories = {
            small_dataset.category_of(q.local_patterns[0].user_id) for q in workload
        }
        assert len(categories) == 6

    def test_queries_never_use_decoys(self, small_dataset):
        workload = build_query_workload(small_dataset, 12, epsilon=0)
        for query in workload:
            assert not small_dataset.profile(query.local_patterns[0].user_id).is_decoy

    def test_queries_prefer_maximally_split_users(self, small_dataset):
        workload = build_query_workload(small_dataset, 12, epsilon=0)
        for query in workload:
            user_id = query.local_patterns[0].user_id
            category = small_dataset.category_of(user_id)
            best = max(
                len(small_dataset.local_patterns_for(u))
                for u in small_dataset.users_in_category(category)
                if not small_dataset.profile(u).is_decoy
            )
            assert query.station_count == best

    def test_query_ids_unique(self, small_dataset):
        workload = build_query_workload(small_dataset, 10, epsilon=0)
        ids = [q.query_id for q in workload]
        assert len(ids) == len(set(ids))

    def test_epsilon_recorded(self, small_dataset):
        assert build_query_workload(small_dataset, 2, epsilon=3).epsilon == 3

    def test_restricting_categories(self, small_dataset):
        workload = build_query_workload(
            small_dataset, 4, epsilon=0, categories=["student"]
        )
        users = {q.local_patterns[0].user_id for q in workload}
        assert all(small_dataset.category_of(u) == "student" for u in users)

    def test_invalid_query_count(self, small_dataset):
        with pytest.raises(ValueError):
            build_query_workload(small_dataset, 0, epsilon=0)

    def test_unknown_category_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            build_query_workload(small_dataset, 2, epsilon=0, categories=["astronaut"])
