"""Round-trip and error-handling tests for the artifact codec."""

from fractions import Fraction

import pytest

from repro import wire
from repro.bloom.standard import BloomFilter
from repro.core.config import DIMatchingConfig
from repro.core.encoder import PatternEncoder
from repro.core.protocol import MatchReport
from repro.core.wbf import WeightedBloomFilter
from repro.distributed.messages import Message, MessageKind
from repro.timeseries.pattern import GlobalPattern, LocalPattern, Pattern
from repro.timeseries.query import QueryPattern
from repro.wire import codec
from repro.wire.values import write_value


def make_wbf() -> WeightedBloomFilter:
    wbf = WeightedBloomFilter(256, 4, seed=3)
    wbf.add(10, ("q1", Fraction(1, 3)))
    wbf.add_many([11, 12, "a", (0, 7)], ("q1", Fraction(2, 3)))
    wbf.add(5, Fraction(1, 2))
    return wbf


def make_queries() -> tuple[QueryPattern, ...]:
    return (
        QueryPattern(
            "q1",
            [LocalPattern("u1", [1, 2, 0, 3], "s1"), LocalPattern("u1", [0, 1, 1, 0], "s2")],
        ),
        QueryPattern("q2", [LocalPattern("u2", [2, 2, 2, 2], "s1")]),
    )


class TestRoundTrips:
    def test_bloom_filter(self):
        bloom = BloomFilter(200, 3, seed=9)
        bloom.add_many([1, "x", (2, "y"), 3.5])
        decoded = wire.decode(wire.encode(bloom))
        assert decoded == bloom
        assert decoded.contains("x") and decoded.contains(1)

    def test_weighted_bloom_filter(self):
        wbf = make_wbf()
        decoded = wire.decode(wire.encode(wbf))
        assert decoded == wbf
        assert decoded.query_weights(10) == wbf.query_weights(10)
        assert decoded.query_weights(5) == wbf.query_weights(5)

    def test_encoded_query_batch(self):
        config = DIMatchingConfig(sample_count=4, epsilon=1)
        batch = PatternEncoder(config).encode_batch(list(make_queries()))
        decoded = wire.decode(wire.encode(batch))
        assert decoded == batch

    def test_match_reports_and_lists(self):
        reports = [
            MatchReport(user_id="u1", station_id="s1", weight=Fraction(1, 3), query_id="q1"),
            MatchReport(user_id="u2", station_id="s1", weight=None),
        ]
        assert wire.decode(wire.encode(reports)) == reports
        assert wire.decode(wire.encode([])) == []

    def test_report_lists_intern_repeated_identifiers(self):
        # Station uploads repeat a handful of long ids across many reports; the
        # columnar layout must amortize them through the string table.
        reports = [
            MatchReport(
                user_id=f"user-{index % 20:04d}",
                station_id="station-with-a-long-name-7",
                weight=Fraction(index + 1, 17),
                query_id=f"query-{index % 4:04d}-with-long-suffix",
            )
            for index in range(200)
        ]
        interned = len(wire.encode(reports))
        itemized = sum(len(wire.encode([report])) for report in reports)
        assert wire.decode(wire.encode(reports)) == reports
        assert interned < itemized / 3

    def test_mixed_lists_use_the_generic_layout(self):
        mixed = [
            MatchReport(user_id="u1", station_id="s1"),
            LocalPattern("u2", [1, 2], "s1"),
        ]
        assert wire.decode(wire.encode(mixed)) == mixed

    def test_patterns_and_queries(self):
        local = LocalPattern("u1", [0, 5, -2], "s9")
        plain = Pattern("u2", [7, 7])
        queries = make_queries()
        assert wire.decode(wire.encode(local)) == local
        assert wire.decode(wire.encode(plain)) == plain
        assert wire.decode(wire.encode(queries[0])) == queries[0]
        assert wire.decode(wire.encode(queries)) == queries

    def test_subclasses_encode_as_their_nearest_registered_base(self):
        assert wire.encode(GlobalPattern("u3", [1, 4])) == wire.encode(Pattern("u3", [1, 4]))

        class ReportList(list):
            pass

        reports = [MatchReport(user_id="u1", station_id="s1")]
        assert wire.encode(ReportList(reports)) == wire.encode(reports)

    def test_none_and_scalars(self):
        assert wire.decode(wire.encode(None)) is None
        for value in (True, 42, -7, 2.5, "text", b"blob", Fraction(3, 7), (1, "a")):
            assert wire.decode(wire.encode(value)) == value

    def test_message_envelopes(self):
        batch = PatternEncoder(DIMatchingConfig(sample_count=4)).encode_batch(
            list(make_queries())
        )
        for payload, kind in [
            (batch, MessageKind.FILTER_DISSEMINATION),
            ([MatchReport(user_id="u", station_id="s")], MessageKind.MATCH_REPORT),
            (None, MessageKind.CONTROL),
        ]:
            message = Message("data-center", "s1", kind, payload)
            decoded = wire.decode(wire.encode(message))
            assert isinstance(decoded, Message)
            assert (decoded.sender, decoded.recipient, decoded.kind) == (
                message.sender,
                message.recipient,
                message.kind,
            )
            assert decoded.payload == payload

    def test_compression_flag_round_trips(self):
        wbf = make_wbf()
        plain = wire.encode(wbf)
        compressed = wire.encode(wbf, compress=True)
        assert compressed != plain
        assert compressed[5] & wire.FLAG_ZLIB
        assert wire.decode(compressed) == wbf

    def test_encoded_size_matches_encoding_and_caches(self):
        wbf = make_wbf()
        assert wire.encoded_size(wbf) == len(wire.encode(wbf))
        # Cached: the same object encodes to the identical bytes object.
        assert wire.encode_cached(wbf) is wire.encode_cached(wbf)

    def test_mutating_a_cached_filter_invalidates_its_encoding(self):
        from repro.distributed.messages import Message, MessageKind

        wbf = make_wbf()
        before = wire.encoded_size(wbf)
        message = Message("dc", "s1", MessageKind.FILTER_DISSEMINATION, wbf)
        size_before = message.size_bytes()
        wbf.add(999, ("q9", Fraction(1, 7)))
        assert wire.encoded_size(wbf) > before
        assert wire.decode(wire.encode_cached(wbf)) == wbf
        assert message.size_bytes() > size_before
        assert message.size_bytes() == len(wire.encode(message))

    def test_mutating_a_batch_filter_refreshes_the_message_frame(self):
        batch = PatternEncoder(DIMatchingConfig(sample_count=4)).encode_batch(
            list(make_queries())
        )
        # A batch changes exactly when its filter does.
        assert wire.object_revision(batch) == batch.wbf.revision
        message = Message("dc", "s1", MessageKind.FILTER_DISSEMINATION, batch)
        frame = message.to_wire()
        batch.wbf.add(999, ("q9", Fraction(1, 7)))
        fresh = message.to_wire()
        assert fresh != frame
        assert fresh == wire.encode(message)
        assert Message.from_wire(fresh).payload == batch


class TestErrorHandling:
    def test_unsupported_payload_raises_typed_error(self):
        class Opaque:
            pass

        with pytest.raises(wire.UnsupportedWireTypeError):
            wire.encode(Opaque())

    def test_short_buffer(self):
        with pytest.raises(wire.WireFormatError):
            wire.decode(b"DIM")

    def test_bad_magic(self):
        data = wire.encode(None)
        with pytest.raises(wire.WireFormatError):
            wire.decode(b"XXXX" + data[4:])

    def test_unknown_version(self):
        data = bytearray(wire.encode(None))
        data[4] = 99
        with pytest.raises(wire.WireFormatError):
            wire.decode(bytes(data))

    def test_unknown_flags(self):
        data = bytearray(wire.encode(None))
        data[5] = 0x80
        with pytest.raises(wire.WireFormatError):
            wire.decode(bytes(data))

    def test_unknown_tag(self):
        data = bytearray(wire.encode(None))
        data[6] = 0x7F
        with pytest.raises(wire.WireFormatError):
            wire.decode(bytes(data))

    def test_truncated_body(self):
        data = wire.encode(make_wbf())
        for cut in (8, len(data) // 2, len(data) - 1):
            with pytest.raises(wire.WireFormatError):
                wire.decode(data[:cut])

    def test_trailing_garbage(self):
        with pytest.raises(wire.WireFormatError):
            wire.decode(wire.encode(make_wbf()) + b"\x00")

    def test_corrupt_compressed_body(self):
        data = bytearray(wire.encode(make_wbf(), compress=True))
        data[10] ^= 0xFF
        with pytest.raises(wire.WireFormatError):
            wire.decode(bytes(data))

    def test_set_padding_bits_rejected(self):
        # A filter whose bit count is not a multiple of 8 leaves padding bits
        # in the final byte; a buffer with any of them set is non-canonical and
        # must be rejected, not decoded into a filter with a wrong popcount.
        bloom = BloomFilter(4, 1)
        data = bytearray(wire.encode(bloom))
        data[-1] = 0xF0  # only padding bits set
        with pytest.raises(wire.WireFormatError):
            wire.decode(bytes(data))
        wbf = make_wbf()  # 256 bits: exercise the aligned case stays accepted
        assert wire.decode(wire.encode(wbf)) == wbf

    def test_oversized_pattern_values_raise_typed_error(self):
        # A naive upload whose pattern value exceeds the wire's 64-bit range
        # has no size: the codec is the only byte model.
        from repro.distributed.messages import Message, MessageKind

        oversized = [LocalPattern("u", [2**70], "bs")]
        with pytest.raises(wire.UnsupportedWireTypeError):
            wire.encode(oversized)
        message = Message("bs", "center", MessageKind.MATCH_REPORT, oversized)
        with pytest.raises(wire.UnsupportedWireTypeError):
            message.size_bytes()

    def test_corrupt_query_pattern_raises_typed_error(self):
        # A query whose local fragments name two different users (or differ in
        # length) fails QueryPattern's constructor validation; hand-craft such
        # a buffer and require the typed error, not a bare ValueError.
        from repro.wire.primitives import write_str, write_svarint, write_uvarint

        body = bytearray()
        write_str(body, "q1")
        write_uvarint(body, 2)
        for user, values in (("u1", [1, 2]), ("u2", [3, 4])):
            write_str(body, user)
            write_str(body, "s1")
            write_uvarint(body, len(values))
            for value in values:
                write_svarint(body, value)
        data = wire.MAGIC + bytes((wire.WIRE_VERSION, 0, 0x07)) + bytes(body)
        with pytest.raises(wire.WireFormatError):
            wire.decode(data)

    def test_inconsistent_weight_map_cannot_encode(self):
        wbf = WeightedBloomFilter(64, 2)
        wbf.add(1, Fraction(1, 2))
        # Attach a weight to a clear bit behind the API's back.
        wbf._weights[63] = {Fraction(1, 3)}
        with pytest.raises(ValueError):
            wire.encode(wbf)


def forged_batch(slot_name: str, value: object) -> bytes:
    """An encoded batch whose config block holds ``value`` in slot ``slot_name``."""
    batch = PatternEncoder(DIMatchingConfig(sample_count=4)).encode_batch(list(make_queries()))
    data = wire.encode(batch)
    block = bytearray()
    codec._write_config_block(block, batch.config)
    start = 7  # the header
    assert data[start : start + len(block)] == block
    forged = bytearray()
    for slot in codec._CONFIG_SLOTS:
        name, written = (slot, getattr(batch.config, slot)) if isinstance(slot, str) else slot
        write_value(forged, value if name == slot_name else written)
    return data[:start] + bytes(forged) + data[start + len(block) :]


RETIRED_SLOTS = [slot for slot in codec._CONFIG_SLOTS if not isinstance(slot, str)]


def other_values(fixed: object) -> list[object]:
    """Values a retired slot must refuse: another value, or the same value typed otherwise."""
    if isinstance(fixed, bool):
        return [not fixed, int(fixed), None]
    if isinstance(fixed, int):
        equal_bool = [False] if fixed == 0 else []
        return [fixed + 1, float(fixed), Fraction(fixed), str(fixed), None, *equal_bool]
    return ["accumulated", fixed.encode(), None]


class TestConfigBlock:
    """The block keeps all 14 slots; the 9 retired ones carry fixed values."""

    def test_fourteen_slots_in_their_wire_order(self):
        names = [slot if isinstance(slot, str) else slot[0] for slot in codec._CONFIG_SLOTS]
        assert names == [
            "sample_count", "hash_count", "epsilon",
            "bit_count", "auto_size", "bits_per_element", "min_bit_count", "seed",
            "include_sample_index", "use_accumulation",
            "expand_epsilon", "epsilon_tolerance_mode", "deduplicate_combinations",
            "max_local_patterns",
        ]
        assert [fixed for _name, fixed in RETIRED_SLOTS] == [
            16384, True, 12, 1024, 0, True, "interval", True, 12,
        ]

    def test_the_codec_writes_the_fixed_values(self):
        batch = PatternEncoder(DIMatchingConfig(sample_count=4)).encode_batch(list(make_queries()))
        assert forged_batch("seed", 0) == wire.encode(batch)
        assert wire.decode(forged_batch("seed", 0)) == batch

    @pytest.mark.parametrize("name,fixed", RETIRED_SLOTS, ids=[name for name, _ in RETIRED_SLOTS])
    def test_a_retired_slot_holding_anything_else_is_refused(self, name, fixed):
        for value in other_values(fixed):
            with pytest.raises(wire.WireFormatError, match=f"slot '{name}' is retired"):
                wire.decode(forged_batch(name, value))

    @pytest.mark.parametrize(
        "name,value",
        [
            ("use_accumulation", 0),
            ("include_sample_index", "no"),
            ("sample_count", 2.5),
            ("hash_count", 2.5),
            ("hash_count", True),
            ("epsilon", 1.0),
        ],
    )
    def test_a_live_slot_of_the_wrong_type_is_refused(self, name, value):
        with pytest.raises(wire.WireFormatError, match=f"configuration is invalid: {name}"):
            wire.decode(forged_batch(name, value))

