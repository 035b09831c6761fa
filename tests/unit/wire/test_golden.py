"""Golden wire-format fixtures.

Each fixture is the exact hex encoding of a small canonical artifact, checked
in so that *any* unintentional change to the wire layout — field order, varint
widths, tag values, weight-table sorting — fails here before it ships.  If a
change is intentional, bump ``WIRE_VERSION`` and regenerate the fixtures.

The fixtures are backend-independent (encodings are canonical) and
platform-independent (SHA-256 hashing, fixed byte orders).  The *compressed*
fixture is asserted on the decode side only: zlib output bytes may legally
differ across zlib builds, while every build must decode every valid stream.
"""

from fractions import Fraction

import pytest

from repro import wire
from repro.bloom.standard import BloomFilter
from repro.core.protocol import MatchReport
from repro.core.wbf import WeightedBloomFilter
from repro.distributed.messages import Message, MessageKind
from repro.timeseries.pattern import LocalPattern
from repro.timeseries.query import QueryPattern

GOLDEN_BLOOM = "44494d57010001400202030021080044000000"
GOLDEN_WBF = (
    "44494d570100024002020300210800040000000307020208020502713107020308020502713107"
    "040302000102000101020102"
)
GOLDEN_REPORT_LIST = "44494d57010009010103027131027331027531020100010203"
GOLDEN_QUERY_BATCH = "44494d5701000801027131010275310273310402040006"
GOLDEN_MESSAGE = (
    "44494d5701000a0b646174612d63656e746572027331011944494d5701000901010302713102"
    "7331027531020100010203"
)
# Decode-only (see module docstring): a zlib-flagged encoding of GOLDEN_WBF's
# artifact as produced by one zlib build.
GOLDEN_WBF_COMPRESSED = (
    "44494d57010102789c736062626650e4606061606060666762e26062652a34646762863258"
    "989918188188918991090031f7020f"
)


def golden_bloom() -> BloomFilter:
    bloom = BloomFilter(64, 2, seed=1)
    bloom.add_many([1, 2, "x"])
    return bloom


def golden_wbf() -> WeightedBloomFilter:
    wbf = WeightedBloomFilter(64, 2, seed=1)
    wbf.add(1, ("q1", Fraction(1, 3)))
    wbf.add(2, ("q1", Fraction(2, 3)))
    wbf.add(1, Fraction(1, 2))
    return wbf


def golden_report() -> MatchReport:
    return MatchReport(user_id="u1", station_id="s1", weight=Fraction(1, 3), query_id="q1")


class TestGoldenEncodings:
    def test_header_layout(self):
        data = wire.encode(None)
        assert data[:4] == b"DIMW"
        assert data[4] == wire.WIRE_VERSION == 1
        assert data[5] == 0  # no flags
        assert len(data) == 7  # None has an empty body

    def test_bloom_filter_encoding_is_stable(self):
        assert wire.encode(golden_bloom()).hex() == GOLDEN_BLOOM

    def test_wbf_encoding_is_stable(self):
        assert wire.encode(golden_wbf()).hex() == GOLDEN_WBF

    def test_report_list_encoding_is_stable(self):
        assert wire.encode([golden_report()]).hex() == GOLDEN_REPORT_LIST

    def test_query_batch_encoding_is_stable(self):
        query = QueryPattern("q1", [LocalPattern("u1", [1, 2, 0, 3], "s1")])
        assert wire.encode((query,)).hex() == GOLDEN_QUERY_BATCH

    def test_message_encoding_is_stable(self):
        message = Message("data-center", "s1", MessageKind.MATCH_REPORT, [golden_report()])
        assert wire.encode(message).hex() == GOLDEN_MESSAGE


class TestGoldenDecodings:
    """The checked-in bytes must keep decoding to the same artifacts forever."""

    def test_bloom_filter_decodes(self):
        assert wire.decode(bytes.fromhex(GOLDEN_BLOOM)) == golden_bloom()

    def test_wbf_decodes(self):
        assert wire.decode(bytes.fromhex(GOLDEN_WBF)) == golden_wbf()

    def test_compressed_wbf_decodes(self):
        assert wire.decode(bytes.fromhex(GOLDEN_WBF_COMPRESSED)) == golden_wbf()

    def test_message_decodes(self):
        decoded = wire.decode(bytes.fromhex(GOLDEN_MESSAGE))
        assert decoded.payload == [golden_report()]
        assert decoded.kind is MessageKind.MATCH_REPORT


class TestGoldenCorruption:
    """Every way of damaging a golden buffer raises the typed error."""

    @pytest.mark.parametrize("cut", [0, 3, 6, 10, -1])
    def test_truncation(self, cut):
        data = bytes.fromhex(GOLDEN_WBF)
        truncated = data[:cut] if cut >= 0 else data[: len(data) + cut]
        with pytest.raises(wire.WireFormatError):
            wire.decode(truncated)

    def test_flipped_magic(self):
        data = bytearray(bytes.fromhex(GOLDEN_WBF))
        data[0] ^= 0xFF
        with pytest.raises(wire.WireFormatError):
            wire.decode(bytes(data))

    def test_weight_table_index_out_of_range(self):
        # The last byte of the WBF fixture is a weight-table index; pointing it
        # past the table must be rejected, not crash or mis-decode.
        data = bytearray(bytes.fromhex(GOLDEN_WBF))
        data[-1] = 0x7F
        with pytest.raises(wire.WireFormatError):
            wire.decode(bytes(data))

    def test_corrupt_compressed_stream(self):
        data = bytearray(bytes.fromhex(GOLDEN_WBF_COMPRESSED))
        data[12] ^= 0xFF
        with pytest.raises(wire.WireFormatError):
            wire.decode(bytes(data))

    def test_nested_message_payload_truncation(self):
        # Truncating inside the nested payload block must surface as a typed
        # error from the envelope decoder.
        data = bytes.fromhex(GOLDEN_MESSAGE)
        with pytest.raises(wire.WireFormatError):
            wire.decode(data[:-3] + data[-2:])
