"""Message envelopes and report lists against the codec they replaced.

``Message.to_wire`` builds a frame as its envelope head plus the payload
block, the envelope reader decodes the payload block in place, and
match-report lists are written and read in one pass.  The references below
are the field-by-field writers and readers those replaced, kept as they
were.  Every message must encode to the same
bytes and decode to an equal message; every truncation and single-byte flip
of a frame must fail with the same :class:`WireFormatError` (message
included) or decode to an equal value.

Nothing here imports ``repro.datagen``, so the file runs without NumPy.
"""

import zlib
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import wire
from repro.bloom.standard import BloomFilter
from repro.core.config import DIMatchingConfig
from repro.core.encoder import PatternEncoder
from repro.core.protocol import MatchReport
from repro.distributed.messages import Message, MessageKind
from repro.timeseries.pattern import LocalPattern
from repro.timeseries.query import QueryPattern
from repro.wire import codec
from repro.wire.codec import (
    _HEADER_SIZE,
    _KNOWN_FLAGS,
    _LIST_GENERIC,
    _LIST_REPORT_COLUMNAR,
    FLAG_ZLIB,
    MAGIC,
    TAG_MESSAGE,
    TAG_OBJECT_LIST,
    WIRE_VERSION,
    _dispatch,
)
from repro.wire.errors import UnsupportedWireTypeError, WireFormatError
from repro.wire.primitives import (
    ByteReader,
    write_bool,
    write_bytes,
    write_fraction,
    write_str,
    write_u8,
    write_uvarint,
)

KINDS = tuple(MessageKind)


# -- the reference codec ---------------------------------------------------------


class ReferenceReader(ByteReader):
    """The reader as it was: every string read through ``uvarint`` and
    ``_take``, every fraction built where it is read, every view re-wrapped."""

    __slots__ = ()

    def __init__(self, data) -> None:
        if type(data) is bytes:
            self._data = data
        elif isinstance(data, (bytearray, memoryview)):
            self._data = memoryview(data)
        else:
            self._data = bytes(data)
        self._offset = 0

    def str_(self) -> str:
        chunk = self._take(self.uvarint())
        try:
            return str(chunk, "utf-8")
        except UnicodeDecodeError as error:
            raise WireFormatError(f"invalid UTF-8 string at offset {self._offset}") from error

    def fraction(self) -> Fraction:
        numerator = self.svarint()
        denominator = self.uvarint()
        if denominator == 0:
            raise WireFormatError(f"fraction with zero denominator at offset {self._offset}")
        return Fraction(numerator, denominator)


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
    table = sorted(
        {r.user_id for r in reports}
        | {r.station_id for r in reports}
        | {r.query_id for r in reports}
    )
    index = {value: position for position, value in enumerate(table)}
    write_uvarint(out, len(table))
    for value in table:
        write_str(out, value)
    for report in reports:
        write_uvarint(out, index[report.user_id])
        write_uvarint(out, index[report.station_id])
        write_uvarint(out, index[report.query_id])
        reference_write_optional_weight(out, report.weight)


def reference_write_list_body(out: bytearray, items: list) -> None:
    if items and all(isinstance(item, MatchReport) for item in items):
        reference_write_report_columnar(out, items)
        return
    write_u8(out, _LIST_GENERIC)
    write_uvarint(out, len(items))
    for item in items:
        tag, writer = _dispatch(item)
        write_u8(out, tag)
        writer(out, item)


def reference_payload_block(payload) -> bytes:
    """Lists through the reference writer; other payloads through the codec."""
    if type(payload) is not list:
        return wire.encode(payload)
    frame = bytearray(MAGIC)
    frame += bytes((WIRE_VERSION, 0, TAG_OBJECT_LIST))
    reference_write_list_body(frame, payload)
    return bytes(frame)


def reference_write_message_body(out: bytearray, message: Message) -> None:
    write_str(out, message.sender)
    write_str(out, message.recipient)
    out.append(KINDS.index(message.kind))
    write_bytes(out, reference_payload_block(message.payload))


def reference_encode(message: Message, compress: bool = False) -> bytes:
    frame = bytearray(MAGIC)
    frame += bytes((WIRE_VERSION, FLAG_ZLIB if compress else 0, TAG_MESSAGE))
    body = bytearray()
    reference_write_message_body(body, message)
    frame += zlib.compress(body, level=6) if compress else body
    return bytes(frame)


def reference_decode(data):
    if len(data) < _HEADER_SIZE:
        raise WireFormatError(
            f"buffer of {len(data)} bytes is shorter than the {_HEADER_SIZE}-byte header"
        )
    if data[:4] != MAGIC:
        raise WireFormatError(f"bad magic {bytes(data[:4])!r}, expected {MAGIC!r}")
    version = data[4]
    if version != 1:
        raise WireFormatError(f"unsupported wire version {version} (this build reads only 1)")
    flags = data[5]
    if flags & ~_KNOWN_FLAGS:
        raise WireFormatError(f"unknown header flags 0x{flags:02x}")
    tag = data[6]
    body = memoryview(data)[_HEADER_SIZE:]
    if flags & FLAG_ZLIB:
        try:
            body = zlib.decompress(body)
        except zlib.error as error:
            raise WireFormatError(f"corrupt compressed body: {error}") from error
    reader = ReferenceReader(body)
    obj = reference_read_body(tag, reader)
    reader.expect_eof()
    return obj


def reference_read_body(tag: int, reader: ByteReader):
    if tag == TAG_MESSAGE:
        return reference_read_message_body(reader)
    if tag == TAG_OBJECT_LIST:
        return reference_read_list_body(reader)
    return codec._read_body(tag, reader)


def reference_read_list_body(reader: ByteReader) -> list:
    layout = reader.u8()
    if layout == _LIST_REPORT_COLUMNAR:
        return reference_read_report_columnar(reader)
    if layout != _LIST_GENERIC:
        raise WireFormatError(f"unknown object-list layout {layout}")
    count = reader.uvarint()
    return [reference_read_body(reader.u8(), reader) for _ in range(count)]


def reference_read_report_columnar(reader: ByteReader) -> list:
    count = reader.uvarint()
    table_count = reader.uvarint()
    table = [reader.str_() for _ in range(table_count)]
    reports = []
    for _ in range(count):
        indices = (reader.uvarint(), reader.uvarint(), reader.uvarint())
        if any(position >= table_count for position in indices):
            raise WireFormatError("report string-table index out of range")
        weight = reader.fraction() if reader.bool_() else None
        reports.append(
            MatchReport(
                user_id=table[indices[0]],
                station_id=table[indices[1]],
                weight=weight,
                query_id=table[indices[2]],
            )
        )
    return reports


def reference_read_message_body(reader: ByteReader) -> Message:
    sender = reader.str_()
    recipient = reader.str_()
    kind_code = reader.u8()
    if kind_code >= len(KINDS):
        raise WireFormatError(f"unknown message kind code {kind_code}")
    payload_block = reader.bytes_()
    return Message(sender, recipient, KINDS[kind_code], reference_decode(payload_block))


# -- strategies ------------------------------------------------------------------


def _utf8_id(size: int):
    """Ids of exactly ``size`` UTF-8 bytes, partly of 3-byte characters."""
    return st.integers(0, size // 3).map(lambda wide: "€" * wide + "a" * (size - 3 * wide))


ids = st.one_of(
    st.sampled_from([0, 1, 127, 128, 300]).flatmap(_utf8_id),
    st.text(st.characters(codec="utf-8"), max_size=8),
)
short_ids = st.text(st.characters(codec="utf-8"), max_size=4)

_EDGE_WEIGHTS = [
    Fraction(2**63 - 1),
    Fraction(-(2**63 - 1), 2**64 - 1),
    Fraction(2**63 - 1, 7),
    Fraction(-5, 7),
    Fraction(0),
]
weights = st.one_of(
    st.none(),
    st.sampled_from(_EDGE_WEIGHTS),
    st.fractions(min_value=-3, max_value=3, max_denominator=9),
)


@st.composite
def report_lists(draw):
    """0, 1 or many reports; some share weight objects, some hold equal copies."""
    pool = draw(st.lists(weights, min_size=1, max_size=3))
    count = draw(st.sampled_from([0, 1, 2, 5, 12]))
    reports = []
    for _ in range(count):
        weight = draw(st.sampled_from(pool))
        if draw(st.booleans()) and weight is not None:
            weight = Fraction(weight.numerator, weight.denominator)  # an equal copy
        reports.append(
            MatchReport(draw(short_ids), draw(short_ids), weight, draw(short_ids))
        )
    return reports


@st.composite
def wide_report_lists(draw):
    """Report lists whose string table has 127, 128 or more entries."""
    table_size = draw(st.sampled_from([127, 128, 129, 300]))
    pool = draw(st.lists(weights, min_size=1, max_size=3))
    return [
        MatchReport(f"user-{index:04d}", "bs", pool[index % len(pool)], "q")
        for index in range(table_size - 2)
    ]


def _batch():
    query = QueryPattern(
        "q0",
        [LocalPattern("alice", [2, 0, 0, 3], "bs-1"), LocalPattern("alice", [0, 4, 0, 0], "bs-2")],
    )
    return PatternEncoder(DIMatchingConfig(sample_count=4)).encode_batch([query])


def _bloom():
    bloom = BloomFilter(128, 3, seed=2)
    bloom.add_many(list(range(12)))
    return bloom


BATCH = _batch()
BLOOM = _bloom()

payloads = st.one_of(
    st.none(),
    st.just(BATCH),
    st.just(BLOOM),
    report_lists(),
)


def _messages(payload_strategy, id_strategy=ids):
    return st.builds(
        Message,
        sender=id_strategy,
        recipient=id_strategy,
        kind=st.sampled_from(KINDS),
        payload=payload_strategy,
    )


messages = st.one_of(_messages(payloads), _messages(wide_report_lists(), short_ids))
small_messages = _messages(payloads, short_ids)


def outcome(encode, message):
    try:
        return encode(message)
    except (WireFormatError, UnsupportedWireTypeError) as error:
        return type(error), str(error)


def decoded(decode, data):
    try:
        return "ok", decode(data)
    except WireFormatError as error:
        return "error", str(error)


def same(got, want) -> bool:
    """Equal outcomes; decoded values compared by their canonical bytes
    when ``==`` cannot tell (a decoded NaN is unequal to itself)."""
    if got == want:
        return True
    return got[0] == want[0] == "ok" and wire.encode(got[1]) == wire.encode(want[1])


# -- the properties --------------------------------------------------------------


class TestEnvelopeEncode:
    @given(message=messages)
    @settings(max_examples=200, deadline=None)
    @example(message=Message("", "", MessageKind.CONTROL, None))
    @example(message=Message("s" * 128, "é" * 150, MessageKind.MATCH_REPORT, []))
    def test_frames_match_the_reference_byte_for_byte(self, message):
        want = outcome(reference_encode, message)
        assert outcome(lambda m: m.to_wire(), message) == want
        assert outcome(wire.encode, message) == want
        # A second call, over the memoized payload block, returns the same bytes.
        assert outcome(lambda m: m.to_wire(), message) == want
        compressed = outcome(lambda m: reference_encode(m, compress=True), message)
        assert outcome(lambda m: wire.encode(m, compress=True), message) == compressed
        assert outcome(lambda m: m.to_wire(compress=True), message) == compressed
        if isinstance(want, bytes):
            assert message.size_bytes() == len(want)

    def test_out_of_range_weights_are_refused_alike(self):
        for weight in (Fraction(2**63), Fraction(1, 2**64), Fraction(-(2**63) - 1)):
            message = Message(
                "bs", "center", MessageKind.MATCH_REPORT, [MatchReport("u", "bs", weight, "q")]
            )
            want = outcome(reference_encode, message)
            assert want[0] is UnsupportedWireTypeError
            assert outcome(lambda m: m.to_wire(), message) == want


class TestEnvelopeDecode:
    @given(message=messages)
    @settings(max_examples=200, deadline=None)
    def test_decodes_equal_the_reference(self, message):
        frame = outcome(reference_encode, message)
        if not isinstance(frame, bytes):
            return
        want = reference_decode(frame)
        assert want == message
        assert wire.decode(frame) == want
        assert Message.from_wire(frame) == want
        assert wire.decode(wire.encode(message, compress=True)) == want

    def test_decoded_reports_share_equal_weights(self):
        reports = [
            MatchReport(f"u{index}", "bs", Fraction(1, 2), "q") for index in range(4)
        ]
        message = Message("bs", "center", MessageKind.MATCH_REPORT, reports)
        decoded_reports = Message.from_wire(message.to_wire()).payload
        assert decoded_reports == reports
        assert len({id(report.weight) for report in decoded_reports}) == 1


class TestCorruptFrames:
    @given(message=small_messages, mask=st.integers(1, 255))
    @settings(max_examples=60, deadline=None)
    @example(message=Message("bs", "c", MessageKind.MATCH_REPORT, []), mask=0x80)
    # Flips the version octets of envelope and payload block from 1 to 2.
    @example(message=Message("dc", "bs", MessageKind.CONTROL, None), mask=0x03)
    @example(
        message=Message(
            "bs", "c", MessageKind.MATCH_REPORT, [MatchReport("u", "bs", Fraction(-1, 3), "q")]
        ),
        mask=0x01,
    )
    def test_truncations_and_flips_fail_exactly_when_the_reference_does(self, message, mask):
        frame = outcome(reference_encode, message)
        if not isinstance(frame, bytes):
            return
        variants = [frame[:cut] for cut in range(len(frame))]
        variants += [
            frame[:index] + bytes((frame[index] ^ mask,)) + frame[index + 1 :]
            for index in range(len(frame))
        ]
        for data in variants:
            assert same(decoded(wire.decode, data), decoded(reference_decode, data)), data
