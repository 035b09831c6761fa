"""Report columns against the object path they replaced.

Reports travel from the station kernel to Algorithm 3 as
:class:`~repro.core.reports.ReportColumns`: a sorted string table plus
integer columns, with each weight as lowest terms.  The references below are
the object path as it stood before, kept whole: the kernel's ``_report``,
which appended one :class:`MatchReport` per report; the report-list writer
and reader, which wrote from and read into those objects; the
``SimilarityRanker`` and ``IncrementalRanking`` that grouped and summed
``Fraction`` weights; and the regional aggregator's deduplication.

Over generated station batches — weighted and weightless reports, empty
lists, negative weights, several weights per station and group, ids of 128
bytes and more, tables of 128 ids and more — and over hand-written frames
carrying non-reduced terms, every one of these must match the reference: the
wire bytes, the decoded value, the ``WireFormatError`` (type and text) of
every truncation and single-byte flip, the ranked results, the incremental
ranking after every update, and the bytes of a regional summary.

Nothing here imports ``repro.datagen``, so the file runs without NumPy.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.matcher as kernel
from repro import wire
from repro.core.aggregator import SimilarityRanker
from repro.core.config import DIMatchingConfig
from repro.core.dimatching import DIMatchingProtocol
from repro.core.encoder import EncodedQueryBatch, PatternEncoder
from repro.core.exceptions import MatchingError
from repro.core.protocol import MatchReport, RankedResults, RankedUser
from repro.core.reports import ReportColumns, concat_reports
from repro.core.wbf import WeightedBloomFilter
from repro.distributed.messages import MessageKind
from repro.topology.aggregator import RegionalAggregator
from repro.topology.tiers import Region
from repro.timeseries.pattern import LocalPattern, PatternSet
from repro.timeseries.query import QueryPattern
from repro.wire import codec
from repro.wire.codec import (
    _HEADER_SIZE,
    _KNOWN_FLAGS,
    _LIST_GENERIC,
    _LIST_REPORT_COLUMNAR,
    FLAG_ZLIB,
    MAGIC,
    TAG_OBJECT_LIST,
    WIRE_VERSION,
    envelope_head,
)
from repro.wire.errors import UnsupportedWireTypeError, WireFormatError
from repro.wire.primitives import (
    ByteReader,
    uvarint_bytes,
    write_bool,
    write_fraction,
    write_str,
    write_svarint,
    write_u8,
    write_uvarint,
)

# -- the reference: the object path, kept whole ---------------------------------------


def reference_report(reports, matcher, candidate, pairs) -> None:
    """The kernel's ``_report``: one ``MatchReport`` per ``(query, weight)`` pair."""
    user_id = matcher._candidates[candidate].user_id
    station_id = matcher._station_id
    for query_id, weight in pairs:
        reports.append(MatchReport(user_id, station_id, weight, query_id))


def reference_match_weighted(matchers, encoded) -> list[list[MatchReport]]:
    wbf = encoded.wbf
    reports: list[list[MatchReport]] = [[] for _ in matchers]
    probes = [matcher._probe_for(wbf.hash_family) for matcher in matchers]
    pairs_by_mask: dict = {}
    for station, candidate, mask in kernel._list_hits(matchers, probes, wbf.position_masks()):
        pairs = pairs_by_mask.get(mask)
        if pairs is None:
            pairs = pairs_by_mask[mask] = kernel._report_pairs(wbf.weights_of_mask(mask))
        reference_report(reports[station], matchers[station], candidate, pairs)
    return reports


def reference_write_optional_weight(out: bytearray, weight) -> None:
    write_bool(out, weight is not None)
    if weight is not None:
        try:
            write_fraction(out, weight)
        except ValueError as error:
            raise UnsupportedWireTypeError(
                f"match-report weight outside the wire's 64-bit numeric range: {error}"
            ) from error


def reference_write_report_columnar(out: bytearray, reports: list) -> None:
    write_u8(out, _LIST_REPORT_COLUMNAR)
    write_uvarint(out, len(reports))
    table = sorted({text for r in reports for text in (r.user_id, r.station_id, r.query_id)})
    write_uvarint(out, len(table))
    for value in table:
        write_str(out, value)
    index = {value: uvarint_bytes(position) for position, value in enumerate(table)}
    weights: dict[int, bytes] = {}
    for report in reports:
        weight = report.weight
        block = weights.get(id(weight))
        if block is None:
            encoded = bytearray()
            reference_write_optional_weight(encoded, weight)
            block = weights[id(weight)] = bytes(encoded)
        out += b"".join(
            (index[report.user_id], index[report.station_id], index[report.query_id], block)
        )


def reference_write_list_body(out: bytearray, items: list) -> None:
    if items and all(isinstance(item, MatchReport) for item in items):
        reference_write_report_columnar(out, items)
        return
    write_u8(out, _LIST_GENERIC)
    write_uvarint(out, len(items))
    for item in items:
        tag, writer = codec._dispatch(item)
        write_u8(out, tag)
        writer(out, item)


def reference_encode(reports: list) -> bytes:
    frame = bytearray(MAGIC)
    frame += bytes((WIRE_VERSION, 0, TAG_OBJECT_LIST))
    reference_write_list_body(frame, reports)
    return bytes(frame)


def reference_read_report_columnar(reader: ByteReader) -> list:
    count = reader.uvarint()
    table_count = reader.uvarint()
    table = [reader.str_() for _ in range(table_count)]
    weights: dict = {}
    reports = []
    for _ in range(count):
        user, station, query = reader.uvarint(), reader.uvarint(), reader.uvarint()
        if user >= table_count or station >= table_count or query >= table_count:
            raise WireFormatError("report string-table index out of range")
        weight = None
        if reader.bool_():
            terms = reader.fraction_terms()
            weight = weights.get(terms)
            if weight is None:
                weight = weights[terms] = Fraction(*terms)
        reports.append(MatchReport(table[user], table[station], weight, table[query]))
    return reports


def reference_read_body(tag: int, reader: ByteReader):
    if tag != TAG_OBJECT_LIST:
        return codec._read_body(tag, reader)
    layout = reader.u8()
    if layout == _LIST_REPORT_COLUMNAR:
        return reference_read_report_columnar(reader)
    if layout != _LIST_GENERIC:
        raise WireFormatError(f"unknown object-list layout {layout}")
    count = reader.uvarint()
    return [reference_read_body(reader.u8(), reader) for _ in range(count)]


def reference_decode(data: bytes):
    if len(data) < _HEADER_SIZE:
        raise WireFormatError(
            f"buffer of {len(data)} bytes is shorter than the {_HEADER_SIZE}-byte header"
        )
    if data[:4] != MAGIC:
        raise WireFormatError(f"bad magic {bytes(data[:4])!r}, expected {MAGIC!r}")
    version = data[4]
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported wire version {version} (this build reads only {WIRE_VERSION})"
        )
    flags = data[5]
    if flags & ~_KNOWN_FLAGS:
        raise WireFormatError(f"unknown header flags 0x{flags:02x}")
    body = memoryview(data)[_HEADER_SIZE:]
    if flags & FLAG_ZLIB:
        try:
            body = zlib.decompress(body)
        except zlib.error as error:
            raise WireFormatError(f"corrupt compressed body: {error}") from error
    reader = ByteReader(body)
    obj = reference_read_body(data[6], reader)
    reader.expect_eof()
    return obj


class ReferenceRanker:
    """``SimilarityRanker`` on ``Fraction`` weights, as it stood."""

    def __init__(self, max_weight_sum: Fraction = Fraction(1)) -> None:
        self._max_weight_sum = max_weight_sum

    def weight_options(self, reports):
        options: dict = {}
        for report in reports:
            if report.weight is None:
                raise MatchingError(
                    f"report for user {report.user_id!r} carries no weight; "
                    "SimilarityRanker requires weighted reports"
                )
            per_station = options.setdefault((report.user_id, report.query_id), {})
            per_station.setdefault(report.station_id, set()).add(report.weight)
        return options

    def best_weight_sum(self, options_by_station):
        bound = self._max_weight_sum
        scale = bound.denominator
        for weights in options_by_station.values():
            for weight in weights:
                if scale % weight.denominator:
                    scale = lcm(scale, weight.denominator)
        scaled = []
        rest = 0
        for weights in options_by_station.values():
            steps = sorted([w.numerator * (scale // w.denominator) for w in weights])
            rest += steps[0]
            scaled.append(steps)
        cap = bound.numerator * (scale // bound.denominator)
        sums = {0}
        for steps in scaled:
            rest -= steps[0]
            room = cap - rest
            sums = {total + step for total in sums for step in steps if total + step <= room}
            if not sums:
                return None
        return Fraction(max(sums), scale)

    def user_scores(self, reports):
        best: dict = {}
        for (user_id, _query_id), per_station in self.weight_options(reports).items():
            weight_sum = self.best_weight_sum(per_station)
            if weight_sum is None:
                continue
            current = best.get(user_id)
            if current is None or weight_sum > current:
                best[user_id] = weight_sum
        return best

    def aggregate(self, reports, k=None) -> RankedResults:
        by_score: dict = {}
        for user_id, weight_sum in self.user_scores(reports).items():
            by_score.setdefault(weight_sum, []).append(user_id)
        ranked = []
        for weight_sum in sorted(by_score, reverse=True):
            score = float(weight_sum)
            ranked.extend(
                RankedUser(user_id=user_id, score=score) for user_id in sorted(by_score[weight_sum])
            )
        results = RankedResults(tuple(ranked))
        return results if k is None else results.top(k)


class ReferenceIncrementalRanking:
    """``IncrementalRanking`` on ``Fraction`` weights, as it stood."""

    def __init__(self, ranker: ReferenceRanker) -> None:
        self._ranker = ranker
        self._groups: dict = {}
        self._station_groups: dict = {}
        self._user_queries: dict = {}
        self._sums: dict = {}
        self._scores: dict = {}
        self._keys: list = []
        self._entries: list = []
        self._touched: set = set()
        self._results = RankedResults(())

    def replace(self, station_id, reports) -> None:
        grouped: dict = {}
        for report in reports:
            if not isinstance(report, MatchReport):
                raise MatchingError("ranking received non-MatchReport entries")
            if report.weight is None:
                raise MatchingError(
                    f"report for user {report.user_id!r} carries no weight; "
                    "SimilarityRanker requires weighted reports"
                )
            grouped.setdefault((report.user_id, report.query_id), set()).add(
                (report.station_id, report.weight)
            )
        self.remove(station_id)
        for key, options in grouped.items():
            group = self._groups.get(key)
            if group is None:
                group = self._groups[key] = {}
                self._user_queries.setdefault(key[0], set()).add(key[1])
            group[station_id] = options
        if grouped:
            self._station_groups[station_id] = tuple(grouped)
            self._touched.update(grouped)

    def remove(self, station_id) -> None:
        for key in self._station_groups.pop(station_id, ()):
            group = self._groups[key]
            del group[station_id]
            if not group:
                del self._groups[key]
                queries = self._user_queries[key[0]]
                queries.discard(key[1])
                if not queries:
                    del self._user_queries[key[0]]
            self._touched.add(key)

    def results(self, k=None) -> RankedResults:
        if self._touched:
            self._settle()
        if self._results is None:
            self._results = RankedResults(tuple(self._entries))
        return self._results if k is None else self._results.top(k)

    def _settle(self) -> None:
        touched, self._touched = self._touched, set()
        users = set()
        for key in touched:
            group = self._groups.get(key)
            if group is None:
                self._sums.pop(key, None)
            else:
                options: dict = {}
                for pairs in group.values():
                    for station_id, weight in pairs:
                        options.setdefault(station_id, set()).add(weight)
                self._sums[key] = self._ranker.best_weight_sum(options)
            users.add(key[0])
        moved = []
        for user_id in users:
            best = None
            for query_id in self._user_queries.get(user_id, ()):
                weight_sum = self._sums[(user_id, query_id)]
                if weight_sum is not None and (best is None or weight_sum > best):
                    best = weight_sum
            old = self._scores.get(user_id)
            if best != old:
                moved.append((user_id, old, best))
        if not moved:
            return
        self._results = None
        scores, keys, entries = self._scores, self._keys, self._entries
        for user_id, old, new in moved:
            if old is not None:
                index = bisect_left(keys, (-float(old), -old, user_id))
                del keys[index]
                del entries[index]
            if new is None:
                del scores[user_id]
                continue
            scores[user_id] = new
            entry = RankedUser(user_id=user_id, score=float(new))
            key = (-entry.score, -new, user_id)
            index = bisect_left(keys, key)
            keys.insert(index, key)
            entries.insert(index, entry)


def reference_dedupe(reports: list) -> list:
    """The regional aggregator's deduplication: weighted reports only."""
    if not all(isinstance(r, MatchReport) and r.weight is not None for r in reports):
        return reports
    seen: set = set()
    unique = []
    for report in reports:
        if report not in seen:
            seen.add(report)
            unique.append(report)
    return unique


# -- strategies ------------------------------------------------------------------------


def _utf8_id(size: int):
    """Ids of exactly ``size`` UTF-8 bytes, partly of 3-byte characters."""
    return st.integers(0, size // 3).map(lambda wide: "€" * wide + "a" * (size - 3 * wide))


#: Mostly a small shared vocabulary, so reports of several stations meet in
#: one ``(user, query)`` group; some ids are 127, 128 or 200 bytes long.
ids = st.one_of(
    st.sampled_from(["u0", "u1", "u2", "bs-0", "bs-1", "q0", "q1", "", "é"]),
    st.sampled_from([127, 128, 200]).flatmap(_utf8_id),
)
STATIONS = ["bs-0", "bs-1", "bs-2", "bs-3"]
weights = st.one_of(
    st.sampled_from(
        [Fraction(1, 2), Fraction(1), Fraction(1, 3), Fraction(2, 3), Fraction(-1, 4), Fraction(0)]
    ),
    st.fractions(min_value=-2, max_value=2, max_denominator=12),
)


@st.composite
def station_batches(draw, weighted=True):
    """One station's reports: often several weights per ``(user, query)``."""
    station_id = draw(st.sampled_from(STATIONS))
    pool = draw(st.lists(weights, min_size=1, max_size=4))
    reports = []
    for _ in range(draw(st.sampled_from([0, 1, 2, 5, 9]))):
        weight = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            weight = Fraction(weight.numerator, weight.denominator)  # an equal copy
        reports.append(
            MatchReport(
                draw(ids),
                draw(st.sampled_from([station_id] * 3 + STATIONS)),
                weight if weighted or draw(st.booleans()) else None,
                draw(ids),
            )
        )
    return reports


@st.composite
def wide_batches(draw):
    """Reports whose string table holds 127, 128 or more ids."""
    table_size = draw(st.sampled_from([127, 128, 129, 300]))
    pool = draw(st.lists(weights, min_size=1, max_size=3))
    return [
        MatchReport(f"user-{index:04d}", "bs", pool[index % len(pool)], "q")
        for index in range(table_size - 2)
    ]


any_batches = st.one_of(station_batches(weighted=False), wide_batches())


def hand_written_frame(table, rows) -> bytes:
    """A report-list frame as given: the table in its order, terms unreduced."""
    frame = bytearray(MAGIC)
    frame += bytes((WIRE_VERSION, 0, TAG_OBJECT_LIST, _LIST_REPORT_COLUMNAR))
    write_uvarint(frame, len(rows))
    write_uvarint(frame, len(table))
    for value in table:
        write_str(frame, value)
    for user, station, query, terms in rows:
        for code in (user, station, query):
            write_uvarint(frame, code)
        write_bool(frame, terms is not None)
        if terms is not None:
            write_svarint(frame, terms[0])
            write_uvarint(frame, terms[1])
    return bytes(frame)


#: Frames a writer never makes but every reader reads: non-reduced terms
#: (2/4 is 1/2), an unsorted table, a repeated id and an unused one, each
#: also alone, so no one of them hides behind another.
HAND_WRITTEN = [
    hand_written_frame(["bs", "q", "u"], [(2, 0, 1, (2, 4)), (2, 0, 1, (1, 2))]),
    hand_written_frame(["bs", "q", "u"], [(2, 0, 1, (-3, 6)), (2, 0, 1, (0, 5))]),
    hand_written_frame(["u", "bs", "q"], [(0, 1, 2, (4, 4)), (0, 1, 2, None)]),
    hand_written_frame(["u", "q", "bs", "u"], [(0, 2, 1, (1, 3)), (3, 2, 1, (2, 6))]),
    hand_written_frame(["zz", "bs", "q", "u", "unused"], [(3, 1, 2, (6, 8))]),
    hand_written_frame(["bs", "q", "u"], [(2, 0, 1, (2 * 3**30, 4 * 3**30))]),
    # Unsorted only.
    hand_written_frame(["u", "bs", "q"], [(0, 1, 2, (1, 2))]),
    # A repeated id only: both reports are user "u"'s, and 1/2 + 2/3 > 1.
    hand_written_frame(
        ["bs1", "bs2", "q", "u", "u"], [(3, 0, 2, (1, 2)), (4, 1, 2, (2, 3))]
    ),
    # An unused id only.
    hand_written_frame(["bs", "q", "u", "v"], [(2, 0, 1, (1, 3))]),
]


def outcome(function, *args):
    try:
        return "ok", function(*args)
    except (WireFormatError, UnsupportedWireTypeError) as error:
        return type(error), str(error)


def _kernel_scenario(draw_lists):
    """A query batch and stations whose candidates reuse its fragments."""
    config = DIMatchingConfig(sample_count=4, hash_count=3)
    queries = [
        QueryPattern(
            f"q{index}",
            [
                LocalPattern(f"user-{index}", values, f"bs-{fragment}")
                for fragment, values in enumerate(fragments)
            ],
        )
        for index, fragments in enumerate(draw_lists)
    ]
    fragments = [local.values for query in queries for local in query.local_patterns]
    stations = [
        (
            f"bs-{station}",
            PatternSet(
                LocalPattern(f"u{(station + index) % 3}", values, f"bs-{station}")
                for index, values in enumerate(fragments[station:] + fragments[:station])
            ),
        )
        for station in range(4)
    ]
    return config, queries, stations


def _encode_in_256_bits(config, queries) -> EncodedQueryBatch:
    """Algorithm 1's insertions in a 256-bit filter, so candidates collide often."""
    insertions, length, combined = PatternEncoder(config).enumerate_insertions(queries)
    wbf = WeightedBloomFilter(256, config.hash_count)
    for item, weight in insertions:
        wbf.add(item, weight)
    return EncodedQueryBatch(
        wbf=wbf,
        config=config,
        pattern_length=length,
        query_count=len(queries),
        combined_pattern_count=combined,
        inserted_item_count=len(insertions),
    )


fragment_values = st.lists(st.integers(0, 3), min_size=6, max_size=6).filter(any)


# -- the properties --------------------------------------------------------------------


class TestStationKernel:
    @given(
        fragments=st.lists(
            st.lists(fragment_values, min_size=1, max_size=3), min_size=1, max_size=3
        ),
        variant=st.sampled_from(["python", "vectorized"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_stations_emit_the_reference_reports(self, fragments, variant):
        config, queries, stations = _kernel_scenario(fragments)
        batch = _encode_in_256_bits(config, queries)
        matchers = [kernel.BaseStationMatcher(config, sid, patterns) for sid, patterns in stations]
        want = reference_match_weighted(matchers, batch)
        with pytest.MonkeyPatch.context() as patch:
            if variant == "python":
                patch.setattr(kernel, "_np", None)
            else:
                patch.setattr(kernel, "_VECTORIZE_ROWS", 0)
            got = kernel.match_weighted(matchers, batch)
        assert all(isinstance(reports, ReportColumns) for reports in got)
        assert got == want
        assert [wire.encode(reports) for reports in got] == [
            reference_encode(reports) for reports in want
        ]
        assert [wire.decode(wire.encode(reports)) for reports in got] == want


class TestReportListCodec:
    @given(reports=any_batches)
    @settings(max_examples=150, deadline=None)
    @example(reports=[])
    @example(reports=[MatchReport("u", "bs", None)])
    def test_bytes_and_decoded_values_match_the_reference(self, reports):
        want = reference_encode(reports)
        columns = ReportColumns.from_reports(reports)
        assert wire.encode(reports) == want
        assert wire.encode(columns) == want
        assert codec.encode_cached(columns) == want
        decoded = wire.decode(want)
        assert decoded == reference_decode(want) == reports
        assert wire.encode(decoded) == want
        if reports:
            assert isinstance(decoded, ReportColumns)
            assert codec._decode_payload_cached(want) == reports
        else:
            assert decoded == [] and isinstance(decoded, list)

    @given(reports=station_batches(weighted=False), mask=st.integers(1, 255))
    @settings(max_examples=60, deadline=None)
    @example(reports=[MatchReport("u", "bs", Fraction(-1, 3), "q")], mask=0x01)
    @example(reports=[MatchReport("u", "bs", Fraction(1, 2), "q")], mask=0x80)
    def test_truncations_and_flips_fail_exactly_when_the_reference_does(self, reports, mask):
        frame = reference_encode(reports)
        variants = [frame[:cut] for cut in range(len(frame))]
        variants += [
            frame[:index] + bytes((frame[index] ^ mask,)) + frame[index + 1 :]
            for index in range(len(frame))
        ]
        for variant in variants:
            assert outcome(wire.decode, variant) == outcome(reference_decode, variant)
            assert outcome(codec._decode_payload_cached, variant) == outcome(
                reference_decode, variant
            )

    @pytest.mark.parametrize("frame", HAND_WRITTEN, ids=range(len(HAND_WRITTEN)))
    def test_hand_written_frames_read_as_the_reference(self, frame):
        decoded = wire.decode(frame)
        want = reference_decode(frame)
        assert decoded == want
        # Weights are lowest terms, and the value re-encodes canonically.
        assert wire.encode(decoded) == reference_encode(want)
        for cut in range(len(frame)):
            assert outcome(wire.decode, frame[:cut]) == outcome(reference_decode, frame[:cut])

    def test_out_of_range_weights_are_refused_alike(self):
        for weight in (Fraction(2**63), Fraction(1, 2**64), Fraction(-(2**63) - 1)):
            reports = [
                MatchReport("u", "bs", Fraction(1, 2), "q"),
                MatchReport("v", "bs", weight, "q"),
            ]
            want = outcome(reference_encode, reports)
            assert want[0] is UnsupportedWireTypeError
            assert outcome(wire.encode, reports) == want


def _decoded_batches(batches):
    """Each batch through the wire, as the center receives it, and the reference's."""
    frames = [reference_encode(reports) for reports in batches]
    return (
        [codec._decode_payload_cached(frame) for frame in frames],
        [reference_decode(frame) for frame in frames],
    )


class TestRanking:
    @given(
        batches=st.lists(station_batches(), max_size=5),
        bound=st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 2)]),
    )
    @settings(max_examples=150, deadline=None)
    def test_ranked_results_match_the_reference(self, batches, bound):
        decoded, reference = _decoded_batches(batches)
        flat = [report for reports in reference for report in reports]
        ranker = SimilarityRanker(bound)
        want = ReferenceRanker(bound)
        reports = concat_reports(decoded)
        assert reports == flat
        assert len(reports) == len(flat)
        assert ranker.aggregate(reports) == want.aggregate(flat)
        assert list(ranker.user_scores(reports).items()) == list(want.user_scores(flat).items())
        assert ranker.weight_options(reports) == want.weight_options(flat)
        for k in (0, 1, 3):
            assert ranker.aggregate(reports, k) == want.aggregate(flat, k)

    @pytest.mark.parametrize(
        "frames",
        [HAND_WRITTEN[:2], HAND_WRITTEN[3:5], HAND_WRITTEN[6:7], HAND_WRITTEN[7:8], HAND_WRITTEN],
    )
    def test_hand_written_frames_rank_as_the_reference(self, frames):
        weighted = [
            frame for frame in frames if all(r.weight is not None for r in reference_decode(frame))
        ]
        reports = concat_reports([wire.decode(frame) for frame in weighted])
        flat = [report for frame in weighted for report in reference_decode(frame)]
        assert SimilarityRanker().aggregate(reports) == ReferenceRanker().aggregate(flat)

    @given(
        operations=st.lists(
            st.tuples(st.sampled_from(STATIONS), st.one_of(st.none(), station_batches())),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_incremental_ranking_matches_the_reference_after_every_update(self, operations):
        ranking = DIMatchingProtocol().open_ranking()
        reference = ReferenceIncrementalRanking(ReferenceRanker())
        for sender, reports in operations:
            if reports is None:
                ranking.remove(sender)
                reference.remove(sender)
            else:
                frame = reference_encode(reports)
                ranking.replace(sender, codec._decode_payload_cached(frame))
                reference.replace(sender, reference_decode(frame))
            assert ranking.results() == reference.results()
            assert ranking.results(2) == reference.results(2)


class TestRegionalSummary:
    @given(batches=st.lists(any_batches, max_size=5))
    @settings(max_examples=80, deadline=None)
    @example(batches=[[MatchReport("u", "bs", Fraction(1, 2), "q")]] * 2)
    def test_summary_bytes_match_the_reference(self, batches):
        self._assert_summary([reference_encode(reports) for reports in batches])

    def test_non_reduced_terms_deduplicate_as_their_value(self):
        # 2/4 and 1/2 from one station collapse into one report.
        summary = self._assert_summary(HAND_WRITTEN[:1] + [HAND_WRITTEN[0]])
        assert len(summary) == 1

    @pytest.mark.parametrize("frame", HAND_WRITTEN, ids=range(len(HAND_WRITTEN)))
    def test_hand_written_frames_summarize_as_the_reference(self, frame):
        self._assert_summary([frame, HAND_WRITTEN[6], frame])

    @staticmethod
    def _assert_summary(frames):
        region = Region("r0", "agg-r0", tuple(f"s{index}" for index in range(len(frames))))
        aggregator = RegionalAggregator(region)
        reference: list = []
        for station_id, frame in zip(region.station_ids, frames):
            head = envelope_head(
                station_id, aggregator.node_id, MessageKind.MATCH_REPORT, len(frame)
            )
            aggregator.receive_frame(head, frame)
            reference.extend(reference_decode(frame))
        summary = aggregator.summarize(region.station_ids)
        assert wire.encode(summary) == reference_encode(reference_dedupe(reference))
        return summary
