"""Lazy station-batch generation: determinism and the resident cap."""

import pytest

from repro.datagen.streaming import StreamingStationSource, iter_station_batches


def _source(**overrides: object) -> StreamingStationSource:
    fields = dict(
        station_count=10,
        users_per_station=4,
        pattern_length=12,
        fragments_per_user=2,
        active_intervals=6,
        seed=42,
        max_resident=4,
    )
    fields.update(overrides)
    return StreamingStationSource(**fields)


class TestValidation:
    def test_rejects_non_positive_knobs(self):
        for field in (
            "station_count",
            "users_per_station",
            "pattern_length",
            "fragments_per_user",
            "active_intervals",
            "max_resident",
        ):
            with pytest.raises((TypeError, ValueError)):
                _source(**{field: 0})

    def test_rejects_more_fragments_than_stations(self):
        with pytest.raises(ValueError, match="fragments_per_user"):
            _source(station_count=2, fragments_per_user=3)

    def test_rejects_more_active_intervals_than_pattern(self):
        with pytest.raises(ValueError, match="active_intervals"):
            _source(pattern_length=4, active_intervals=5)

    def test_unknown_station_and_user_raise(self):
        source = _source()
        with pytest.raises(KeyError):
            source.station_batch("s99999")
        with pytest.raises(KeyError):
            source.fragments_of("u9999999")

    @pytest.mark.parametrize(
        "user_id",
        [
            "u1",  # unpadded
            "x0000001",  # wrong prefix
            "u+0000001",  # signed
            "u 1",  # padded with a space
            "u0000001 ",  # trailing space
            "u00000001",  # over-padded
            "u0_000001",  # digit separator
            "uabc",  # not a number
            "u",
            "",
            "u-000001",
            "u0000040",  # one past the 40 declared users
        ],
    )
    def test_only_canonical_user_ids_are_known(self, user_id):
        # Only the canonical spelling names a user.  A near-miss spelling of
        # a declared index would place fragments at that user's stations
        # with values from another seed stream: a query no station stores.
        source = _source()
        with pytest.raises(KeyError):
            source.fragments_of(user_id)
        with pytest.raises(KeyError):
            source.query_for(user_id)


class TestLazyBatches:
    def test_nothing_is_resident_until_touched(self):
        source = _source()
        assert source.user_count == 40
        assert len(source.station_ids) == 10
        assert source.resident_count == 0
        assert source.built_count == 0

    def test_every_fragment_lands_at_its_claimed_station(self):
        source = _source()
        for station_id in source.station_ids:
            for user_id, fragment in source.station_batch(station_id).items():
                assert fragment.user_id == user_id
                assert fragment.station_id == station_id

    def test_batches_agree_with_per_user_fragments(self):
        source = _source()
        # Collect the city two ways: via station batches and via user streams.
        by_station = {}
        for station_id in source.station_ids:
            for user_id, fragment in source.station_batch(station_id).items():
                by_station[(user_id, station_id)] = fragment.values
        by_user = {}
        for station_id in source.station_ids:
            for user_id in source.user_ids_for(station_id):
                for fragment in source.fragments_of(user_id):
                    by_user[(user_id, fragment.station_id)] = fragment.values
        assert by_station == by_user

    @pytest.mark.parametrize("fragments_per_user", [1, 2, 3])
    @pytest.mark.parametrize("users_per_station", [1, 2, 3])
    @pytest.mark.parametrize("active_intervals", [1, 2, 5])
    def test_batches_equal_filtered_fragments_in_order(
        self, fragments_per_user, users_per_station, active_intervals
    ):
        # Batch order is candidate order, hence report order: a station's
        # batch must equal, key for key and in insertion order, the reference
        # that derives every fragment of each touching user and keeps the one
        # stored here.  With active_intervals < fragments_per_user some
        # fragments are empty and skipped.
        source = _source(
            station_count=5,
            users_per_station=users_per_station,
            fragments_per_user=fragments_per_user,
            active_intervals=active_intervals,
        )
        station_ids = source.station_ids
        for target, station_id in enumerate(station_ids):
            reference = {}
            for offset in source._offsets:
                home = station_ids[(target - offset) % len(station_ids)]
                for user_id in source.user_ids_for(home):
                    for fragment in source.fragments_of(user_id):
                        if fragment.station_id == station_id:
                            reference[user_id] = fragment
            batch = source.station_batch(station_id)
            assert [(u, f.user_id, f.station_id, f.values) for u, f in batch.items()] == [
                (u, f.user_id, f.station_id, f.values) for u, f in reference.items()
            ]
        stored = sum(len(source.station_batch(s)) for s in station_ids)
        if active_intervals < fragments_per_user:
            assert stored == source.user_count * active_intervals
        else:
            assert stored == source.user_count * fragments_per_user

    def test_resident_set_is_bounded_and_lru(self):
        source = _source(max_resident=3)
        stations = source.station_ids
        for station_id in stations:
            source.station_batch(station_id)
            assert source.resident_count <= 3
        assert source.built_count == 10
        assert source.eviction_count == 7
        # The last three touched are resident: re-touching them builds nothing.
        for station_id in stations[-3:]:
            source.station_batch(station_id)
        assert source.built_count == 10
        # A cold station evicts the least recently used one.
        source.station_batch(stations[0])
        assert source.built_count == 11
        assert source.eviction_count == 8

    def test_retire_drops_a_batch_explicitly(self):
        source = _source()
        station_id = source.station_ids[0]
        source.station_batch(station_id)
        assert source.retire(station_id) is True
        assert source.resident_count == 0
        assert source.retire(station_id) is False
        # Re-touching rebuilds — to identical content.
        first = {u: f.values for u, f in source.station_batch(station_id).items()}
        source.retire(station_id)
        second = {u: f.values for u, f in source.station_batch(station_id).items()}
        assert first == second

    def test_iter_station_batches_sweeps_without_accumulating(self):
        source = _source(max_resident=8)
        seen = []
        for station_id, patterns in iter_station_batches(source):
            seen.append(station_id)
            assert len(patterns) > 0
            assert source.resident_count <= 1
        assert seen == source.station_ids
        assert source.resident_count == 0


class TestDeterminism:
    def test_two_sources_agree_regardless_of_access_order(self):
        first = _source()
        second = _source()
        for station_id in first.station_ids:
            left = first.station_batch(station_id)
            right = second.station_batch(station_id)
            assert {u: f.values for u, f in left.items()} == {
                u: f.values for u, f in right.items()
            }
        # Access order (and evictions in between) never changes content.
        shuffled = list(reversed(first.station_ids))
        third = _source(max_resident=1)
        for station_id in shuffled:
            assert {
                u: f.values for u, f in third.station_batch(station_id).items()
            } == {u: f.values for u, f in first.station_batch(station_id).items()}

    def test_seed_changes_the_city(self):
        baseline = _source()
        reseeded = _source(seed=43)
        station_id = baseline.station_ids[0]
        assert {
            u: f.values for u, f in baseline.station_batch(station_id).items()
        } != {u: f.values for u, f in reseeded.station_batch(station_id).items()}

    def test_queries_never_build_station_batches(self):
        source = _source()
        queries = source.sample_queries(5)
        assert len(queries) == 5
        assert source.built_count == 0
        assert source.resident_count == 0
        assert queries == source.sample_queries(5)  # and they are deterministic

    def test_query_sampling_derives_from_the_source_seed(self):
        # No explicit seed: the draw comes from the source's own identity,
        # so differently-seeded sources sample different exemplars.
        baseline = [q.query_id for q in _source().sample_queries(4)]
        reseeded = [q.query_id for q in _source(seed=43).sample_queries(4)]
        assert baseline != reseeded
        # An explicit seed overrides the identity: both sources then pick
        # the same exemplar ids (content still differs with the city).
        left = [q.query_id for q in _source().sample_queries(4, seed=7)]
        right = [q.query_id for q in _source(seed=43).sample_queries(4, seed=7)]
        assert left == right

    def test_query_fragments_match_the_station_batches(self):
        source = _source()
        query = source.query_for("u0000003")
        for fragment in query.local_patterns:
            stored = source.station_batch(fragment.station_id)["u0000003"]
            assert stored.values == fragment.values
