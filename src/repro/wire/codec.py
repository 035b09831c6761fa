"""Binary wire codec for every protocol artifact.

Every encoding starts with a 7-byte header::

    offset 0  magic   b"DIMW"   (4 bytes)
    offset 4  version u8        (always WIRE_VERSION, 1)
    offset 5  flags   u8        (bit 0: body is zlib-compressed)
    offset 6  type    u8        (artifact tag, see the TAG_* constants)

followed by a type-specific body of varint/fixed-width fields (see
:mod:`repro.wire.primitives`).  The format is canonical: a given artifact has
exactly one encoding, independent of insertion and dict/set iteration order
(the WBF weight table is sorted by encoded value bytes, sparse positions
ascend).  That property is what makes the golden fixtures stable.

The version octet is the codec's alone: there is one header layout, every
writer emits version 1, and a frame carrying any other version is refused.
Decoding a malformed buffer — bad magic, a version other than 1, unknown
flags or tag, truncation, out-of-range indices, corrupt zlib body, trailing
bytes — always raises :class:`~repro.wire.errors.WireFormatError`.
"""

from __future__ import annotations

import weakref
import zlib
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

from repro.bloom.bitset import iter_set_bits_in_bytes
from repro.bloom.standard import BloomFilter
from repro.core.config import DIMatchingConfig
from repro.core.encoder import EncodedQueryBatch
from repro.core.exceptions import ConfigurationError
from repro.core.protocol import MatchReport
from repro.core.reports import NO_REPORTS, ReportColumns
from repro.core.wbf import WeightedBloomFilter
from repro.timeseries.pattern import LocalPattern, Pattern
from repro.timeseries.query import QueryPattern
from repro.wire.errors import UnsupportedWireTypeError, WireFormatError
from repro.wire.primitives import (
    ByteReader,
    uvarint_bytes,
    uvarint_size,
    write_bool,
    write_fraction_terms,
    write_str,
    write_svarint,
    write_u8,
    write_uvarint,
)
from repro.wire.values import encode_value, read_value, write_value

if TYPE_CHECKING:
    from repro.distributed.messages import Message, MessageKind

#: Magic bytes opening every encoded artifact ("DI-Matching Wire").
MAGIC = b"DIMW"
#: The header version every frame carries; a frame with any other is refused.
WIRE_VERSION = 1

#: Header flag: the body (everything after the 7-byte header) is zlib-compressed.
FLAG_ZLIB = 0x01

_KNOWN_FLAGS = FLAG_ZLIB

TAG_NONE = 0x00
TAG_BLOOM_FILTER = 0x01
TAG_WBF = 0x02
TAG_ENCODED_BATCH = 0x03
TAG_MATCH_REPORT = 0x04
TAG_PATTERN = 0x05
TAG_LOCAL_PATTERN = 0x06
TAG_QUERY_PATTERN = 0x07
TAG_QUERY_BATCH = 0x08
TAG_OBJECT_LIST = 0x09
TAG_MESSAGE = 0x0A
TAG_VALUE = 0x0B

_HEADER_SIZE = 7

#: The envelope vocabulary of :mod:`repro.distributed.messages`, bound once
#: by :func:`_bind_message_types` on first use — this module must not import
#: :mod:`repro.distributed` at load time, which itself imports this codec.
_MESSAGE_TYPE: "type[Message] | None" = None
#: ``MessageKind`` members by wire code, and each member's one-byte code.
_KINDS_BY_CODE: "tuple[MessageKind, ...]" = ()
_KIND_CODES: "dict[MessageKind, bytes]" = {}


def _bind_message_types() -> "type[Message]":
    """Resolve ``Message`` and the message-kind wire codes; returns ``Message``.

    Kind codes are derived from ``MessageKind`` declaration order.  Deriving
    (instead of hand-maintaining a parallel table) means a new kind can never
    be encodable-but-undecodable; the flip side is that kinds must only ever
    be *appended* to the enum — reordering or removing one changes existing
    codes and requires a ``WIRE_VERSION`` bump.
    """
    global _MESSAGE_TYPE, _KINDS_BY_CODE
    from repro.distributed.messages import Message, MessageKind

    _KINDS_BY_CODE = tuple(MessageKind)
    _KIND_CODES.update((kind, bytes((code,))) for code, kind in enumerate(_KINDS_BY_CODE))
    _WRITERS_BY_TYPE[Message] = (TAG_MESSAGE, _write_message_body)
    _MESSAGE_TYPE = Message
    return Message


# -- body encoders ---------------------------------------------------------------


def _write_bloom_body(out: bytearray, bloom: BloomFilter) -> None:
    write_uvarint(out, bloom.bit_count)
    write_uvarint(out, bloom.hash_count)
    write_svarint(out, bloom.hash_family.seed)
    write_uvarint(out, bloom.item_count)
    out += bloom.bits.to_bytes()


def _check_bit_padding(bits: bytes, bit_count: int) -> None:
    """Reject set bits in the final byte's padding beyond ``bit_count``.

    The canonical encoding zeroes padding bits; accepting them would give two
    distinct byte strings for one logical filter and corrupt the decoded
    popcount (fill ratio, false-positive estimates, unions).
    """
    spare = bit_count & 7
    if spare and bits and bits[-1] >> spare:
        raise WireFormatError(
            f"set padding bits beyond bit {bit_count} in the final bit-array byte"
        )


def _read_bloom_body(reader: ByteReader) -> BloomFilter:
    bit_count = reader.uvarint()
    hash_count = reader.uvarint()
    seed = reader.svarint()
    item_count = reader.uvarint()
    if bit_count == 0 or hash_count == 0:
        raise WireFormatError("Bloom filter with zero bit or hash count")
    bits = reader.raw((bit_count + 7) // 8)
    _check_bit_padding(bits, bit_count)
    return BloomFilter.from_state(bit_count, hash_count, seed, bits, item_count)


def _write_wbf_body(out: bytearray, wbf: WeightedBloomFilter) -> None:
    write_uvarint(out, wbf.bit_count)
    write_uvarint(out, wbf.hash_count)
    write_svarint(out, wbf.seed)
    write_uvarint(out, wbf.item_count)
    bits = wbf._bits.to_bytes()
    out += bits
    entries = wbf.weight_entries()
    # Every set bit carries at least one weight by construction ("each bit with
    # 1 has a pointer to the weight", Section II-B), so positions are never
    # written: the weight lists ride along the set bits of the bit array, in
    # ascending bit order.  Distinct weights are stored once in a table sorted
    # by their canonical encoding; each set bit references table indices.  Both
    # orders make the bytes independent of insertion order.
    if [position for position, _ in entries] != list(
        iter_set_bits_in_bytes(bits, wbf.bit_count)
    ):
        raise ValueError(
            "WBF weight map is inconsistent with its bit array "
            "(a set bit without weights, or weights on a clear bit); "
            "cannot encode canonically"
        )
    # A filter holds few distinct weight sets over many set bits, so the sets
    # are collected once, ordered by the highest bit carrying each.  Equal
    # weights of different types (1, True, Fraction(1)) share one table
    # entry, spelled as the weight on the highest bit carrying one of them,
    # so spellings are taken from the sets in that order, highest first.
    last_carriers: dict[frozenset, None] = {}
    for _position, weights in entries:
        last_carriers.pop(weights, None)
        last_carriers[weights] = None
    latest: dict = {}
    for weights in reversed(last_carriers):
        for weight in weights:
            latest.setdefault(weight, weight)
    # Each distinct weight is encoded once, and each distinct set's index
    # block built once and appended at every set bit that carries the set.
    encoded_by_weight = {weight: encode_value(last) for weight, last in latest.items()}
    encoded_weights = sorted(set(encoded_by_weight.values()))
    table_index = {data: index for index, data in enumerate(encoded_weights)}
    write_uvarint(out, len(encoded_weights))
    for data in encoded_weights:
        out += data
    blocks: dict[frozenset, bytearray] = {}
    for weights in last_carriers:
        indices = sorted(table_index[encoded_by_weight[weight]] for weight in weights)
        block = blocks[weights] = bytearray()
        write_uvarint(block, len(indices))
        for index in indices:
            write_uvarint(block, index)
    for _position, weights in entries:
        out += blocks[weights]


def _read_wbf_body(reader: ByteReader) -> WeightedBloomFilter:
    bit_count = reader.uvarint()
    hash_count = reader.uvarint()
    seed = reader.svarint()
    item_count = reader.uvarint()
    if bit_count == 0 or hash_count == 0:
        raise WireFormatError("WBF with zero bit or hash count")
    bits = reader.raw((bit_count + 7) // 8)
    _check_bit_padding(bits, bit_count)
    table_count = reader.uvarint()
    table = [read_value(reader) for _ in range(table_count)]
    weights: dict[int, frozenset] = {}
    # Distinct index combinations are few (one per weight-set the encoder ever
    # attached) while set bits number in the hundreds of thousands at scale,
    # so the frozensets are interned per combination instead of rebuilt (and
    # their weights re-hashed) once per set bit.
    combos: dict[tuple[int, ...], frozenset] = {}
    read_uvarint = reader.uvarint
    for position in iter_set_bits_in_bytes(bits, bit_count):
        count = read_uvarint()
        if count == 0:
            raise WireFormatError(f"WBF weight entry at bit {position} is empty")
        if count == 1:
            # Single-index entries (the overwhelmingly common case) are
            # canonical by construction; only the range check applies.
            key: tuple[int, ...] = (read_uvarint(),)
        else:
            key = tuple(read_uvarint() for _ in range(count))
            if any(earlier >= later for earlier, later in zip(key, key[1:])):
                raise WireFormatError(f"WBF weight indices not canonical at bit {position}")
        attached = combos.get(key)
        if attached is None:
            if key[-1] >= table_count:
                raise WireFormatError(
                    f"WBF weight table index out of range at bit {position}"
                )
            attached = frozenset(table[index] for index in key)
            combos[key] = attached
        weights[position] = attached
    return WeightedBloomFilter.from_state(bit_count, hash_count, seed, bits, weights, item_count)


#: ``DIMatchingConfig`` fields serialized on the wire, in order: all of them.
_CONFIG_WIRE_FIELDS = (
    "sample_count",
    "hash_count",
    "epsilon",
    "bit_count",
    "auto_size",
    "bits_per_element",
    "min_bit_count",
    "seed",
    "include_sample_index",
    "use_accumulation",
    "expand_epsilon",
    "epsilon_tolerance_mode",
    "deduplicate_combinations",
    "max_local_patterns",
)


def _write_config_block(out: bytearray, config: DIMatchingConfig) -> None:
    for name in _CONFIG_WIRE_FIELDS:
        write_value(out, getattr(config, name))


def _read_config_block(reader: ByteReader) -> DIMatchingConfig:
    fields = {name: read_value(reader) for name in _CONFIG_WIRE_FIELDS}
    try:
        return DIMatchingConfig(**fields)
    except (ConfigurationError, TypeError) as error:
        raise WireFormatError(f"decoded configuration is invalid: {error}") from error


def _write_batch_body(out: bytearray, batch: EncodedQueryBatch) -> None:
    _write_config_block(out, batch.config)
    write_uvarint(out, batch.pattern_length)
    write_uvarint(out, batch.query_count)
    write_uvarint(out, batch.combined_pattern_count)
    write_uvarint(out, batch.inserted_item_count)
    _write_wbf_body(out, batch.wbf)


def _read_batch_body(reader: ByteReader) -> EncodedQueryBatch:
    config = _read_config_block(reader)
    pattern_length = reader.uvarint()
    query_count = reader.uvarint()
    combined_pattern_count = reader.uvarint()
    inserted_item_count = reader.uvarint()
    wbf = _read_wbf_body(reader)
    return EncodedQueryBatch(
        wbf=wbf,
        config=config,
        pattern_length=pattern_length,
        query_count=query_count,
        combined_pattern_count=combined_pattern_count,
        inserted_item_count=inserted_item_count,
    )


def _read_optional_weight(reader: ByteReader) -> Fraction | None:
    return reader.fraction() if reader.bool_() else None


def _write_report_body(out: bytearray, report: MatchReport) -> None:
    write_str(out, report.user_id)
    write_str(out, report.station_id)
    write_str(out, report.query_id)
    weight = report.weight
    if weight is None:
        _write_weight_terms(out, 0, 0)
    else:
        _write_weight_terms(out, weight.numerator, weight.denominator)


def _read_report_body(reader: ByteReader) -> MatchReport:
    user_id = reader.str_()
    station_id = reader.str_()
    query_id = reader.str_()
    weight = _read_optional_weight(reader)
    return MatchReport(user_id=user_id, station_id=station_id, weight=weight, query_id=query_id)


def _write_values_seq(out: bytearray, values: tuple[int, ...]) -> None:
    write_uvarint(out, len(values))
    try:
        for value in values:
            write_svarint(out, value)
    except ValueError as error:
        raise UnsupportedWireTypeError(
            f"pattern value outside the wire's 64-bit numeric range: {error}"
        ) from error


def _read_values_seq(reader: ByteReader) -> list[int]:
    count = reader.uvarint()
    if count == 0:
        raise WireFormatError("pattern with zero intervals")
    return [reader.svarint() for _ in range(count)]


def _write_pattern_body(out: bytearray, pattern: Pattern) -> None:
    write_str(out, pattern.user_id)
    _write_values_seq(out, pattern.values)


def _read_pattern_body(reader: ByteReader) -> Pattern:
    user_id = reader.str_()
    return Pattern(user_id, _read_values_seq(reader))


def _write_local_pattern_body(out: bytearray, pattern: LocalPattern) -> None:
    write_str(out, pattern.user_id)
    write_str(out, pattern.station_id)
    _write_values_seq(out, pattern.values)


def _read_local_pattern_body(reader: ByteReader) -> LocalPattern:
    user_id = reader.str_()
    station_id = reader.str_()
    return LocalPattern(user_id, _read_values_seq(reader), station_id=station_id)


def _write_query_body(out: bytearray, query: QueryPattern) -> None:
    write_str(out, query.query_id)
    write_uvarint(out, len(query.local_patterns))
    for local in query.local_patterns:
        _write_local_pattern_body(out, local)


def _read_query_body(reader: ByteReader) -> QueryPattern:
    query_id = reader.str_()
    count = reader.uvarint()
    if count == 0:
        raise WireFormatError(f"query {query_id!r} has no local patterns")
    locals_ = [_read_local_pattern_body(reader) for _ in range(count)]
    try:
        return QueryPattern(query_id, locals_)
    except (ValueError, TypeError) as error:
        # Constructor validation (mixed user ids, mismatched fragment lengths)
        # means the buffer is corrupt — keep the typed-error contract.
        raise WireFormatError(f"decoded query {query_id!r} is invalid: {error}") from error


def _write_query_batch_body(out: bytearray, queries: tuple) -> None:
    write_uvarint(out, len(queries))
    for query in queries:
        _write_query_body(out, query)


def _read_query_batch_body(reader: ByteReader) -> tuple:
    count = reader.uvarint()
    return tuple(_read_query_body(reader) for _ in range(count))


#: Object-list layouts: generic tagged items, or the string-interned columnar
#: form used for match-report uploads (where a handful of user/station/query
#: identifiers repeat across thousands of reports and would otherwise dominate
#: the uplink).
_LIST_GENERIC = 0
_LIST_REPORT_COLUMNAR = 1

#: An empty list's body: the generic layout with no items.  Every empty
#: report list travels as it.
_EMPTY_LIST_BODY = bytes((_LIST_GENERIC, 0))


def _write_object_list_body(out: bytearray, items: list) -> None:
    if items and all(isinstance(item, MatchReport) for item in items):
        _write_report_list_body(out, ReportColumns.from_reports(items))
        return
    write_u8(out, _LIST_GENERIC)
    write_uvarint(out, len(items))
    for item in items:
        tag, writer = _dispatch(item)
        write_u8(out, tag)
        writer(out, item)


def _write_report_list_body(out: bytearray, columns: ReportColumns) -> None:
    """A report list: the empty list's body, or the columnar layout."""
    table = columns.table
    users, stations, queries = columns.users, columns.stations, columns.queries
    numerators, denominators = columns.numerators, columns.denominators
    if not denominators:
        out += _EMPTY_LIST_BODY
        return
    write_u8(out, _LIST_REPORT_COLUMNAR)
    write_uvarint(out, len(denominators))
    write_uvarint(out, len(table))
    for value in table:
        write_str(out, value)
    # Every table index and every distinct weight is encoded once, so a
    # report costs one append of its four pre-encoded fields.
    index = list(map(uvarint_bytes, range(len(table))))
    weights: dict[tuple[int, int], bytes] = {}
    for user, station, query, numerator, denominator in zip(
        users, stations, queries, numerators, denominators
    ):
        block = weights.get((numerator, denominator))
        if block is None:
            encoded = bytearray()
            _write_weight_terms(encoded, numerator, denominator)
            block = weights[numerator, denominator] = bytes(encoded)
        out += b"".join((index[user], index[station], index[query], block))


def _write_weight_terms(out: bytearray, numerator: int, denominator: int) -> None:
    """A report's weight: presence flag, then the fraction (denominator 0: no weight).

    Shared by both report layouts.
    """
    write_bool(out, denominator != 0)
    if denominator:
        try:
            write_fraction_terms(out, numerator, denominator)
        except ValueError as error:
            raise UnsupportedWireTypeError(
                f"match-report weight outside the wire's 64-bit numeric range: {error}"
            ) from error


def _read_object_list_body(reader: ByteReader) -> object:
    layout = reader.u8()
    if layout == _LIST_REPORT_COLUMNAR:
        return _read_report_columns(reader)
    if layout != _LIST_GENERIC:
        raise WireFormatError(f"unknown object-list layout {layout}")
    count = reader.uvarint()
    items = []
    for _ in range(count):
        tag = reader.u8()
        items.append(_read_body(tag, reader))
    return items


def _read_report_columns(reader: ByteReader) -> ReportColumns:
    """The columnar layout, into columns: the one report-list reader."""
    count = reader.uvarint()
    table_count = reader.uvarint()
    table = [reader.str_() for _ in range(table_count)]
    if not count:
        return NO_REPORTS
    uvarint, bool_, fraction_terms = reader.uvarint, reader.bool_, reader.fraction_terms
    users: list[int] = []
    stations: list[int] = []
    queries: list[int] = []
    numerators: list[int] = []
    denominators: list[int] = []
    for _ in range(count):
        user, station, query = uvarint(), uvarint(), uvarint()
        if user >= table_count or station >= table_count or query >= table_count:
            raise WireFormatError("report string-table index out of range")
        users.append(user)
        stations.append(station)
        queries.append(query)
        numerator, denominator = fraction_terms() if bool_() else (0, 0)
        numerators.append(numerator)
        denominators.append(denominator)
    # Tuples of ints, as the station kernel's: the collector stops tracking
    # them once they survive a collection, while the columns wait for the
    # round's ranking.
    return ReportColumns.normalized(
        tuple(table),
        tuple(users),
        tuple(stations),
        tuple(queries),
        tuple(numerators),
        tuple(denominators),
    )


#: The header of every envelope :meth:`Message.to_wire` writes: no flags.
#: The payload block inside carries its own header.
_ENVELOPE_HEADER = MAGIC + bytes((WIRE_VERSION, 0, TAG_MESSAGE))


def _envelope_fields(
    sender: str, recipient: str, kind: "MessageKind", payload_size: int, head: bytes = b""
) -> bytes:
    """``head``, then the envelope body up to and including the payload length.

    The one definition of the envelope layout — sender, recipient, kind code
    and payload length, which the payload block follows — joined in one
    pass.  :func:`message_envelope_size` sizes it arithmetically (a unit test
    keeps the two in lockstep).
    """
    sender_bytes = sender.encode("utf-8")
    recipient_bytes = recipient.encode("utf-8")
    return b"".join(
        (
            head,
            uvarint_bytes(len(sender_bytes)),
            sender_bytes,
            uvarint_bytes(len(recipient_bytes)),
            recipient_bytes,
            _KIND_CODES[kind],
            uvarint_bytes(payload_size),
        )
    )


def _write_message_body(out: bytearray, message: "Message") -> None:
    # The message memoizes its payload encoding, so cost accounting and
    # envelope construction within one round share a single payload encode.
    payload = message.payload_wire()
    out += _envelope_fields(message.sender, message.recipient, message.kind, len(payload))
    out += payload


def envelope_head(sender: str, recipient: str, kind: "MessageKind", payload_size: int) -> bytes:
    """The uncompressed frame of an envelope up to its payload block.

    A frame is this head followed by the ``payload_size``-byte payload block,
    so a transport can keep the two apart — every frame of a broadcast then
    shares one payload object — and join them only where bytes must be
    contiguous.
    """
    if _MESSAGE_TYPE is None:
        _bind_message_types()
    return _envelope_fields(sender, recipient, kind, payload_size, _ENVELOPE_HEADER)


def message_frame(message: "Message", payload: bytes) -> bytes:
    """``encode(message)``, given the message's payload block."""
    return envelope_head(message.sender, message.recipient, message.kind, len(payload)) + payload


def read_frame(head: bytes, payload: bytes) -> "tuple[str, str, MessageKind, object] | None":
    """A canonical frame's sender, recipient, kind and decoded payload.

    A canonical head is one :func:`envelope_head` writes: one-byte sender and
    recipient lengths, valid UTF-8, a known kind code, and the canonical
    length of ``payload`` as its last bytes.  It is read by slicing, and
    ``payload`` itself reaches the payload decode cache, so the frames of a
    broadcast find their shared artifact by identity.  Any other head gives
    ``None``: the caller decodes ``head + payload`` in full.  Raises
    :class:`WireFormatError` when the payload block does not decode.
    """
    if _MESSAGE_TYPE is None:
        _bind_message_types()
    if head[:_HEADER_SIZE] != _ENVELOPE_HEADER or len(head) <= _HEADER_SIZE:
        return None
    sender_size = head[_HEADER_SIZE]
    sender_end = _HEADER_SIZE + 1 + sender_size
    if sender_size >= 0x80 or sender_end >= len(head):
        return None
    recipient_size = head[sender_end]
    recipient_end = sender_end + 1 + recipient_size
    if (
        recipient_size >= 0x80
        or recipient_end >= len(head)
        or head[recipient_end] >= len(_KINDS_BY_CODE)
        or head[recipient_end + 1 :] != uvarint_bytes(len(payload))
    ):
        return None
    try:
        sender = str(head[_HEADER_SIZE + 1 : sender_end], "utf-8")
        recipient = str(head[sender_end + 1 : recipient_end], "utf-8")
    except UnicodeDecodeError:
        return None
    return (
        sender,
        recipient,
        _KINDS_BY_CODE[head[recipient_end]],
        _decode_payload_cached(payload),
    )


def _read_message_body(reader: ByteReader) -> "Message":
    message_type = _MESSAGE_TYPE or _bind_message_types()
    sender = reader.str_()
    recipient = reader.str_()
    kind_code = reader.u8()
    if kind_code >= len(_KINDS_BY_CODE):
        raise WireFormatError(f"unknown message kind code {kind_code}")
    # Decoded in place: the block is a view of the frame, copied only into
    # the decode cache's key (``read_frame`` hands in the block itself).
    payload_block = reader.blob_view()
    return message_type(
        sender,
        recipient,
        _KINDS_BY_CODE[kind_code],
        _decode_payload_cached(payload_block),
    )


#: Payload-decode memoization for the broadcast hot path: a round's downlink
#: sends the *same* artifact bytes inside N per-station envelopes, and decoding
#: the filter body N times used to dominate round cost (it scaled with cluster
#: size, not with the data).  The cache maps exact payload-block bytes to the
#: decoded artifact, so a broadcast decodes once and every
#: further station reuses the instance — sharing that the round engine already
#: sanctions by matching every station against one decoded artifact.  A frame
#: read by :func:`read_frame` hands in the sender's own ``bytes`` object
#: as the key: its hash is computed once and cached by the object, and a dict
#: lookup compares identity before content, so a broadcast's stations find
#: the artifact without copying or rehashing its block.  Guard rails:
#: only large filter-bearing tags are cached (report lists are per-station
#: unique; tiny payloads are cheaper to decode than to hash), and each hit is
#: revalidated against the artifact's mutation revision so an instance mutated
#: after decode is evicted instead of served.
_PAYLOAD_DECODE_CACHE: dict[bytes, tuple[object, object]] = {}
_PAYLOAD_DECODE_CACHE_MAX = 8
_PAYLOAD_DECODE_MIN_BYTES = 64
_PAYLOAD_DECODE_TAGS = frozenset({TAG_WBF, TAG_ENCODED_BATCH, TAG_BLOOM_FILTER})


def _decode_payload_cached(block: "bytes | memoryview") -> object:
    if len(block) < _PAYLOAD_DECODE_MIN_BYTES or block[6] not in _PAYLOAD_DECODE_TAGS:
        # An empty list — most stations' report list — is one shared,
        # read-only value: no list per frame.
        return NO_REPORTS if block == _EMPTY_LIST_ENCODING else decode(block)
    # A view is copied; a ``bytes`` block is the key itself.
    data = bytes(block)
    entry = _PAYLOAD_DECODE_CACHE.get(data)
    if entry is not None:
        obj, revision = entry
        if object_revision(obj) == revision:
            return obj
        del _PAYLOAD_DECODE_CACHE[data]
    obj = decode(data)
    if len(_PAYLOAD_DECODE_CACHE) >= _PAYLOAD_DECODE_CACHE_MAX:
        # Drop the oldest entry (plain dicts preserve insertion order).
        _PAYLOAD_DECODE_CACHE.pop(next(iter(_PAYLOAD_DECODE_CACHE)))
    _PAYLOAD_DECODE_CACHE[data] = (obj, object_revision(obj))
    return obj


def clear_payload_decode_cache() -> None:
    """Drop every memoized payload decode (tests and benchmarks)."""
    _PAYLOAD_DECODE_CACHE.clear()


def _write_value_body(out: bytearray, value: object) -> None:
    write_value(out, value)


_READERS: dict[int, Callable[[ByteReader], object]] = {
    TAG_BLOOM_FILTER: _read_bloom_body,
    TAG_WBF: _read_wbf_body,
    TAG_ENCODED_BATCH: _read_batch_body,
    TAG_MATCH_REPORT: _read_report_body,
    TAG_PATTERN: _read_pattern_body,
    TAG_LOCAL_PATTERN: _read_local_pattern_body,
    TAG_QUERY_PATTERN: _read_query_body,
    TAG_QUERY_BATCH: _read_query_batch_body,
    TAG_OBJECT_LIST: _read_object_list_body,
    TAG_MESSAGE: _read_message_body,
    TAG_VALUE: read_value,
}


def _write_nothing(out: bytearray, obj: None) -> None:
    pass


#: Class -> (tag, body writer).  :func:`_dispatch` takes the first entry on
#: an object's MRO, so the artifacts a round sends resolve in one lookup and a
#: subclass (``GlobalPattern``, a ``list`` subclass) encodes as its nearest
#: registered base.  ``Message`` joins on first use (see
#: :func:`_bind_message_types`).
_WRITERS_BY_TYPE: dict[type, tuple[int, Callable[[bytearray, object], None]]] = {
    type(None): (TAG_NONE, _write_nothing),
    WeightedBloomFilter: (TAG_WBF, _write_wbf_body),
    BloomFilter: (TAG_BLOOM_FILTER, _write_bloom_body),
    EncodedQueryBatch: (TAG_ENCODED_BATCH, _write_batch_body),
    MatchReport: (TAG_MATCH_REPORT, _write_report_body),
    ReportColumns: (TAG_OBJECT_LIST, _write_report_list_body),
    LocalPattern: (TAG_LOCAL_PATTERN, _write_local_pattern_body),
    Pattern: (TAG_PATTERN, _write_pattern_body),
    QueryPattern: (TAG_QUERY_PATTERN, _write_query_body),
    list: (TAG_OBJECT_LIST, _write_object_list_body),
}


def _dispatch(obj: object) -> tuple[int, Callable[[bytearray, object], None]]:
    """Map an object to its wire tag and body writer."""
    for cls in type(obj).__mro__:
        entry = _WRITERS_BY_TYPE.get(cls)
        if entry is not None:
            return entry
    if isinstance(obj, tuple) and obj and all(isinstance(q, QueryPattern) for q in obj):
        return TAG_QUERY_BATCH, _write_query_batch_body
    type_name = type(obj).__name__
    # By name first: avoid importing repro.distributed for unrelated objects.
    if type_name == "Message" and isinstance(obj, _MESSAGE_TYPE or _bind_message_types()):
        return TAG_MESSAGE, _write_message_body
    if isinstance(obj, (bool, int, float, str, bytes, bytearray, Fraction, tuple)):
        return TAG_VALUE, _write_value_body
    raise UnsupportedWireTypeError(f"no wire encoding for objects of type {type_name}")


def _read_body(tag: int, reader: ByteReader) -> object:
    if tag == TAG_NONE:
        return None
    read = _READERS.get(tag)
    if read is None:
        raise WireFormatError(f"unknown wire type tag 0x{tag:02x}")
    return read(reader)


# -- public API ------------------------------------------------------------------


def encode(obj: object, *, compress: bool = False) -> bytes:
    """Encode a protocol artifact into its canonical wire bytes.

    ``compress=True`` sets the zlib flag and deflates the body (the header
    stays uncompressed so the type remains readable without inflating).
    Raises :class:`UnsupportedWireTypeError` for objects outside the protocol
    vocabulary.
    """
    tag, writer = _dispatch(obj)
    frame = bytearray(MAGIC)
    frame.append(WIRE_VERSION)
    frame.append(FLAG_ZLIB if compress else 0)
    frame.append(tag)
    if compress:
        body = bytearray()
        writer(body, obj)
        frame += zlib.compress(body, level=6)
    else:
        # Uncompressed bodies are written in place after the header.
        writer(frame, obj)
    return bytes(frame)


def decode(data: "bytes | bytearray | memoryview") -> object:
    """Decode wire bytes back into the artifact they describe.

    A version octet other than :data:`WIRE_VERSION` is refused.  The buffer
    may be any bytes-like object; the uncompressed body is read through a
    zero-copy view rather than sliced out of the frame.
    """
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
    tag = data[6]
    view = data if data.__class__ is memoryview else memoryview(data)
    body: "bytes | memoryview" = view[_HEADER_SIZE:]
    if flags & FLAG_ZLIB:
        try:
            body = zlib.decompress(body)
        except zlib.error as error:
            raise WireFormatError(f"corrupt compressed body: {error}") from error
    reader = ByteReader(body)
    obj = _read_body(tag, reader)
    reader.expect_eof()
    return obj


#: id -> (weakref, revision, encoded bytes).  Keyed by identity so
#: unhashable artifacts (filters define ``__eq__`` without ``__hash__``) can
#: still be cached; the weakref callback evicts entries when the artifact is
#: garbage-collected, and the revision guards against post-encode mutation.
_ENCODE_CACHE: dict[int, tuple[weakref.ref, object, bytes]] = {}

#: ``None`` cannot be weakly referenced, so its encoding is kept here.
_NONE_ENCODING = encode(None)

#: Every empty list, report lists included, encodes to these bytes.
_EMPTY_LIST_ENCODING = encode([])

#: The header of every report list's encoding.
_REPORT_LIST_HEADER = MAGIC + bytes((WIRE_VERSION, 0, TAG_OBJECT_LIST))


def _encode_report_list(columns: ReportColumns) -> bytes:
    """``encode(columns)``."""
    if not columns.denominators:
        return _EMPTY_LIST_ENCODING
    frame = bytearray(_REPORT_LIST_HEADER)
    _write_report_list_body(frame, columns)
    return bytes(frame)


def object_revision(obj: object) -> object:
    """Mutation revision of an artifact, or None when it has no counter.

    Filters expose a ``revision`` bumped on every insertion; an
    :class:`EncodedQueryBatch` reports its WBF's.  Used to invalidate cached
    encodings of mutable artifacts — an object without a counter is cached on
    identity alone (immutable protocol objects).
    """
    return getattr(obj, "revision", None)


def encode_cached(obj: object) -> bytes:
    """Encode with per-object memoization (uncompressed only).

    The broadcast phase encodes the *same* artifact object once per station;
    this cache makes every send after the first O(1).  Cached entries are
    invalidated when a filter's mutation :func:`object_revision` changes, so
    encode → mutate → encode never serves stale bytes.  Objects that cannot
    hold weak references (tuples, lists) are encoded afresh each call, and
    so are report columns: each is one station's value for one round.
    """
    if obj.__class__ is ReportColumns:
        return _encode_report_list(obj)
    return encode_cached_at(obj, object_revision(obj))


def encode_cached_at(obj: object, revision: object) -> bytes:
    """:func:`encode_cached` for a caller that already read ``obj``'s revision."""
    if obj is None:
        return _NONE_ENCODING
    if obj.__class__ is ReportColumns:
        return _encode_report_list(obj)
    if obj.__class__ is list:
        # A list can never be weakly referenced, so it is never cached.
        return encode(obj)
    key = id(obj)
    entry = _ENCODE_CACHE.get(key)
    if entry is not None:
        ref, cached_revision, data = entry
        if ref() is obj and cached_revision == revision:
            return data
    data = encode(obj)
    try:
        ref = weakref.ref(obj, lambda _ref, _key=key: _ENCODE_CACHE.pop(_key, None))
    except TypeError:
        return data
    _ENCODE_CACHE[key] = (ref, revision, data)
    return data


def encoded_size(obj: object) -> int:
    """Actual wire size of ``obj`` in bytes (memoized via :func:`encode_cached`)."""
    return len(encode_cached(obj))


def message_envelope_size(sender: str, recipient: str, payload_size: int) -> int:
    """Exact encoded size of a message envelope around a ``payload_size`` payload.

    Computed arithmetically so cost accounting for a broadcast of N station
    messages sharing one artifact never materializes N copies of the envelope
    bytes — ``Message.size_bytes`` charges ``header + routing fields +
    payload block`` without building it.  Kept in lockstep with :func:`_envelope_fields` by a
    unit test asserting equality with ``len(encode(message))`` and with the
    length of :func:`envelope_head` plus the payload block.
    """
    sender_bytes = sender.encode("utf-8")
    recipient_bytes = recipient.encode("utf-8")
    return (
        _HEADER_SIZE
        + uvarint_size(len(sender_bytes))
        + len(sender_bytes)
        + uvarint_size(len(recipient_bytes))
        + len(recipient_bytes)
        + 1  # kind code
        + uvarint_size(payload_size)
        + payload_size
    )
