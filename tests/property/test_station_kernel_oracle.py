"""Algorithm 2's many-station kernel against the per-station matcher it replaced.

``match_stations`` matches every station of a call in one pass: it looks each
sampled position up in the filter's position table and AND-reduces the
entries per candidate.  The reference below is the station matcher as it
stood before, kept whole: one bit row-test per station over its candidates'
position rows, then, for each candidate whose bits all passed, the
mask-index AND of its positions, grouped into reports by query and weight.

Both must return equal report lists, element by element and in order, for
every filter: built by Algorithm 1 on either bit backend, decoded off the
wire, mutated after its position table was built, or rebuilt by
``from_state`` with weights on clear bits and set bits without weights.  The
pure-Python kernel, the only one that runs without NumPy, is forced in the
NumPy leg by clearing the kernel module's ``_np``; the NumPy pass, which
otherwise takes only calls of ``_VECTORIZE_ROWS`` rows or more, is forced by
lowering that bar to 0.

Nothing here imports the datagen layer, so the file runs without NumPy.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.matcher as kernel
from repro import wire
from repro.baselines.bf_matching import BloomFilterProtocol
from repro.bloom.backend import HAS_NUMPY, available_backends
from repro.core.config import DIMatchingConfig
from repro.core.dimatching import DIMatchingProtocol
from repro.core.encoder import EncodedQueryBatch
from repro.core.exceptions import MatchingError
from repro.core.matcher import BaseStationMatcher
from repro.core.protocol import MatchReport
from repro.core.wbf import WeightedBloomFilter
from repro.timeseries.pattern import LocalPattern, PatternSet
from repro.timeseries.query import QueryPattern

BACKENDS = available_backends()
LENGTH = 6


# -- the per-station reference ---------------------------------------------------------


def reference_consistent_weights_over(wbf: WeightedBloomFilter, positions) -> frozenset:
    """The mask-index AND over ``positions``, bits assumed set.

    The weight numbering comes from the filter's mask index, whose order the
    report order follows.  Each position's mask is derived afresh from the
    filter's weight map, and the result set is built afresh rather than read
    from the index's memo, so the kernel cannot hand the reference its own.
    """
    weight_list = wbf._weight_mask_index()[1]
    bit_of = {weight: bit for bit, weight in enumerate(weight_list)}
    acc = -1
    for position in positions:
        attached = wbf._weights.get(position)
        if attached is None:
            return frozenset()
        mask = 0
        for weight in attached:
            mask |= 1 << bit_of[weight]
        acc &= mask
        if not acc:
            return frozenset()
    if acc == -1:
        return frozenset()
    members = []
    remaining = acc
    while remaining:
        low = remaining & -remaining
        members.append(weight_list[low.bit_length() - 1])
        remaining ^= low
    return frozenset(members)


def reference_match_rows(rows, wbf: WeightedBloomFilter) -> dict:
    """One candidate whose bits all passed: ``query_id -> consistent weights``."""
    common = reference_consistent_weights_over(
        wbf, (position for row in rows for position in row)
    )
    if not common:
        return {}
    grouped: dict = {}
    for query_id, weight in common:
        grouped.setdefault(query_id, set()).add(weight)
    return {query_id: frozenset(weights) for query_id, weights in grouped.items()}


def passing_candidates(matcher: BaseStationMatcher, bits, family):
    """``(user id, rows)`` of each candidate whose bits all pass one row test."""
    candidates = [
        (pattern.user_id, family.indices_batch(matcher._probe_items(pattern)))
        for pattern in matcher._candidates
    ]
    passed = bits.all_set_rows([row for _, rows in candidates for row in rows])
    offset = 0
    for user_id, rows in candidates:
        end = offset + len(rows)
        if all(passed[offset:end]):
            yield user_id, rows
        offset = end


def reference_match_against(config, station_id, patterns, encoded) -> list[MatchReport]:
    """The per-station WBF matcher: row test, then per-candidate weight test."""
    if encoded.config.sample_count != config.sample_count:
        raise MatchingError("encoder and matcher sample counts differ")
    matcher = BaseStationMatcher(config, station_id, patterns)
    wbf = encoded.wbf
    reports = []
    for user_id, rows in passing_candidates(matcher, wbf._bits, wbf.hash_family):
        for query_id, weights in reference_match_rows(rows, wbf).items():
            for weight in weights:
                reports.append(
                    MatchReport(
                        user_id=user_id,
                        station_id=station_id,
                        weight=weight,
                        query_id=query_id,
                    )
                )
    return reports


def reference_match_against_plain(config, station_id, patterns, bloom) -> list[MatchReport]:
    """The per-station plain-BF matcher: one row test."""
    matcher = BaseStationMatcher(config, station_id, patterns)
    return [
        MatchReport(user_id=user_id, station_id=station_id, weight=None)
        for user_id, _rows in passing_candidates(matcher, bloom.bits, bloom.hash_family)
    ]


def reference(config, stations, artifact) -> list[list[MatchReport]]:
    if isinstance(artifact, EncodedQueryBatch):
        return [
            reference_match_against(config, station_id, patterns, artifact)
            for station_id, patterns in stations
        ]
    return [
        reference_match_against_plain(config, station_id, patterns, artifact)
        for station_id, patterns in stations
    ]


def kernel_variants():
    """The kernels this platform runs: NumPy (when installed) and pure Python."""
    return ["numpy", "python"] if HAS_NUMPY else ["python"]


def force(patch: pytest.MonkeyPatch, variant: str) -> None:
    """Run every call through one kernel, whatever its size.

    NumPy takes only calls of ``_VECTORIZE_ROWS`` rows or more, which these
    small examples rarely reach, so the NumPy variant lowers the bar to 0.
    """
    if variant == "python":
        patch.setattr(kernel, "_np", None)
    else:
        patch.setattr(kernel, "_VECTORIZE_ROWS", 0)


def assert_matches_reference(protocol, config, stations, artifact) -> None:
    """Every kernel variant returns the reference's lists."""
    for variant in kernel_variants():
        with pytest.MonkeyPatch.context() as patch:
            force(patch, variant)
            got = protocol.match_stations(stations, artifact)
            want = reference(config, stations, artifact)
            singles = [
                protocol.station_match(station_id, patterns, artifact)
                for station_id, patterns in stations
            ]
        assert got == want, variant
        assert singles == want, variant


# -- strategies ------------------------------------------------------------------------

small_values = st.lists(st.integers(0, 3), min_size=LENGTH, max_size=LENGTH)
#: Algorithm 1 rejects a query whose global pattern is all zeros.
query_values = small_values.filter(any)


@st.composite
def scenarios(draw, locals_per_query=st.integers(1, 3), spread=False):
    """A config, a query batch and stations whose candidates often match it.

    With ``spread``, fragment ``j`` of a query is ``2**j`` times one drawn
    series, so the fragments of every combination sum to their own total and
    every combination has its own weight.
    """
    config = DIMatchingConfig(
        sample_count=draw(st.integers(2, 6)),
        hash_count=draw(st.integers(1, 4)),
        auto_size=False,
        bit_count=draw(st.integers(16, 512)),
        seed=draw(st.integers(0, 3)),
    )
    queries = []
    for index in range(draw(st.integers(1, 3))):
        base = draw(query_values) if spread else None
        queries.append(
            QueryPattern(
                f"q{index}",
                [
                    LocalPattern(
                        f"user-{index}",
                        [value * 2**fragment for value in base] if spread else draw(query_values),
                        f"bs-{fragment}",
                    )
                    for fragment in range(draw(locals_per_query))
                ],
            )
        )

    def candidate_values() -> list[int]:
        kind = draw(st.sampled_from(["fragment", "combination", "random"]))
        query = draw(st.sampled_from(queries))
        if kind == "fragment":
            return list(draw(st.sampled_from(query.local_patterns)).values)
        if kind == "combination":
            chosen = draw(
                st.lists(st.sampled_from(query.local_patterns), min_size=1, unique=True)
            )
            return [sum(column) for column in zip(*(local.values for local in chosen))]
        return draw(small_values)

    stations = []
    for index in range(draw(st.integers(0, 4))):
        station_id = f"bs-{index}"
        count = draw(st.sampled_from([0, 1, 2, 6]))
        patterns = PatternSet(
            LocalPattern(f"u{draw(st.integers(0, 4))}", candidate_values(), station_id)
            for _ in range(count)
        )
        stations.append((station_id, patterns))
    return config, queries, stations


def with_backend(config: DIMatchingConfig, backend: str) -> DIMatchingConfig:
    return config.with_updates(bit_backend=backend)


# -- properties ------------------------------------------------------------------------


@pytest.mark.parametrize("decoded", [False, True], ids=["built", "decoded"])
@pytest.mark.parametrize("backend", BACKENDS)
@given(scenario=scenarios())
@settings(max_examples=30, deadline=None)
def test_weighted_kernel_matches_reference(backend, decoded, scenario):
    config, queries, stations = scenario
    config = with_backend(config, backend)
    protocol = DIMatchingProtocol(config)
    batch = protocol.encode(queries)
    if decoded:
        batch = wire.decode(wire.encode(batch), backend=backend)
    assert_matches_reference(protocol, config, stations, batch)


@pytest.mark.parametrize("backend", BACKENDS)
@given(scenario=scenarios(locals_per_query=st.just(7), spread=True))
@settings(max_examples=10, deadline=None)
def test_masks_spanning_several_words(backend, scenario):
    config, queries, stations = scenario
    config = with_backend(config, backend)
    protocol = DIMatchingProtocol(config)
    batch = protocol.encode(queries)
    weights = len(batch.wbf.distinct_weights())
    assert weights > 64
    if HAS_NUMPY:
        words = (weights + 63) // 64
        assert batch.wbf.position_table().shape == (batch.wbf.bit_count, words)
    assert_matches_reference(protocol, config, stations, batch)


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    scenario=scenarios(),
    insertions=st.lists(
        st.tuples(
            st.tuples(st.integers(0, LENGTH - 1), st.integers(0, 20)),
            st.tuples(st.sampled_from(["q0", "q9"]), st.fractions(0, 1, max_denominator=7)),
        ),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=30, deadline=None)
def test_filter_mutated_after_its_table_was_built(backend, scenario, insertions):
    config, queries, stations = scenario
    config = with_backend(config, backend)
    protocol = DIMatchingProtocol(config)
    batch = protocol.encode(queries)
    protocol.match_stations(stations, batch)
    if HAS_NUMPY:
        batch.wbf.position_table()
    batch.wbf.position_masks()
    for item, weight in insertions:
        batch.wbf.add(item, weight)
    assert_matches_reference(protocol, config, stations, batch)


W0, W1, W2 = ("q0", Fraction(1)), ("q0", Fraction(1, 3)), ("q1", Fraction(2, 3))
#: What one position of a ``from_state`` filter carries: mostly ``W0``, so
#: candidates often find a common weight; ``None`` leaves it out of the map.
position_weights = st.sampled_from(
    [frozenset({W0}), frozenset({W0, W1}), frozenset({W0, W1, W2}), frozenset({W2}),
     frozenset(), None]
)


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    scenario=scenarios(),
    positions=st.lists(
        st.tuples(st.sampled_from([True, True, True, False]), position_weights),
        min_size=64,
        max_size=64,
    ),
)
@settings(max_examples=40, deadline=None)
def test_from_state_filters(backend, scenario, positions):
    # Weights may sit on clear bits, and set bits may carry no weights: a
    # position matches only when its bit is set *and* it carries weights.
    config, _queries, stations = scenario
    # Few probed positions per candidate, so matches and near misses are common.
    config = with_backend(config, backend).with_updates(
        sample_count=2, hash_count=min(config.hash_count, 2)
    )
    bits = bytearray(8)
    weights = {}
    for position, (is_set, attached) in enumerate(positions):
        if is_set:
            bits[position >> 3] |= 1 << (position & 7)
        if attached is not None:
            weights[position] = attached
    wbf = WeightedBloomFilter.from_state(
        64, config.hash_count, config.seed, bytes(bits), weights, 0, backend=backend
    )
    batch = EncodedQueryBatch(
        wbf=wbf,
        config=config,
        pattern_length=LENGTH,
        query_count=2,
        combined_pattern_count=0,
        inserted_item_count=0,
    )
    assert_matches_reference(DIMatchingProtocol(config), config, stations, batch)


@pytest.mark.parametrize("decoded", [False, True], ids=["built", "decoded"])
@pytest.mark.parametrize("backend", BACKENDS)
@given(scenario=scenarios())
@settings(max_examples=30, deadline=None)
def test_plain_kernel_matches_reference(backend, decoded, scenario):
    config, queries, stations = scenario
    config = with_backend(config, backend)
    protocol = BloomFilterProtocol(config)
    bloom = protocol.encode(queries)
    if decoded:
        bloom = wire.decode(wire.encode(bloom), backend=backend)
    for variant in kernel_variants():
        with pytest.MonkeyPatch.context() as patch:
            force(patch, variant)
            got = protocol.match_stations(stations, bloom)
        assert got == reference(config, stations, bloom), variant


# -- errors ----------------------------------------------------------------------------


def _one_station():
    return [("bs-0", PatternSet([LocalPattern("u", [1, 2, 3, 4, 5, 6], "bs-0")]))]


def test_wrong_artifact_type_names_the_first_station():
    with pytest.raises(MatchingError, match=r"station 'bs-0' received BloomFilter"):
        DIMatchingProtocol().match_stations(
            _one_station(), BloomFilterProtocol().encode([QueryPattern("q", _one_station()[0][1])])
        )
    with pytest.raises(MatchingError, match=r"station 'bs-0' received NoneType"):
        BloomFilterProtocol().match_stations(_one_station(), None)
    # No station, nothing to check or match.
    assert DIMatchingProtocol().match_stations([], None) == []


def test_sample_count_mismatch_is_rejected():
    batch = DIMatchingProtocol(DIMatchingConfig(sample_count=4)).encode(
        [QueryPattern("q", _one_station()[0][1])]
    )
    with pytest.raises(MatchingError, match="sample counts differ"):
        DIMatchingProtocol(DIMatchingConfig(sample_count=8)).match_stations(
            _one_station(), batch
        )
