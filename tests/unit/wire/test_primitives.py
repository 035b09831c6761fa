"""Unit tests for the varint/fixed-width wire primitives.

Every reader test runs over the three buffer types a :class:`ByteReader` is
handed in practice: ``bytes``, ``bytearray`` and a ``memoryview`` slice of a
larger buffer — the form an envelope body is decoded from.
"""

import pytest

from repro.wire.errors import WireFormatError
from repro.wire.primitives import (
    MAX_VARINT_BYTES,
    ByteReader,
    write_bool,
    write_bytes,
    write_f64,
    write_str,
    write_svarint,
    write_u8,
    write_uvarint,
)


def _memoryview_slice(data: bytes) -> memoryview:
    """``data`` as a view into the middle of a larger frame."""
    frame = b"\xaa" * 7 + data + b"\xbb" * 5
    return memoryview(frame)[7 : 7 + len(data)]


BUFFER_KINDS = {
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview-slice": _memoryview_slice,
}


@pytest.fixture(params=sorted(BUFFER_KINDS))
def buffer(request):
    """Turns encoded bytes into one of the buffer types readers accept."""
    return BUFFER_KINDS[request.param]


def roundtrip_uvarint(value: int, buffer) -> int:
    out = bytearray()
    write_uvarint(out, value)
    reader = ByteReader(buffer(bytes(out)))
    result = reader.uvarint()
    reader.expect_eof()
    return result


def roundtrip_svarint(value: int, buffer) -> int:
    out = bytearray()
    write_svarint(out, value)
    reader = ByteReader(buffer(bytes(out)))
    result = reader.svarint()
    reader.expect_eof()
    return result


class TestVarints:
    @pytest.mark.parametrize(
        "value", [0, 1, 127, 128, 129, 16383, 16384, 2**32, 2**64 - 1]
    )
    def test_uvarint_round_trip(self, value, buffer):
        assert roundtrip_uvarint(value, buffer) == value

    @pytest.mark.parametrize(
        "value", [0, 1, -1, 63, -64, 64, -65, 2**62, -(2**62), 2**63 - 1, -(2**63)]
    )
    def test_svarint_round_trip(self, value, buffer):
        assert roundtrip_svarint(value, buffer) == value

    @pytest.mark.parametrize(
        "value,encoding",
        [
            (127, b"\x7f"),
            (128, b"\x80\x01"),
            (16383, b"\xff\x7f"),
            (16384, b"\x80\x80\x01"),
        ],
    )
    def test_uvarint_byte_boundaries(self, value, encoding, buffer):
        out = bytearray()
        write_uvarint(out, value)
        assert bytes(out) == encoding
        # Followed by a one-byte varint, so each read must stop exactly at
        # its own last byte.
        reader = ByteReader(buffer(encoding + b"\x05"))
        assert reader.uvarint() == value
        assert reader.offset == len(encoding)
        assert reader.uvarint() == 5
        reader.expect_eof()

    def test_uvarint_width_is_minimal(self):
        for value, width in [(0, 1), (127, 1), (128, 2), (16383, 2), (16384, 3)]:
            out = bytearray()
            write_uvarint(out, value)
            assert len(out) == width

    def test_uvarint_rejects_negative_and_oversized(self):
        with pytest.raises(ValueError):
            write_uvarint(bytearray(), -1)
        with pytest.raises(ValueError):
            write_uvarint(bytearray(), 2**64)

    def test_svarint_rejects_oversized(self):
        with pytest.raises(ValueError):
            write_svarint(bytearray(), 2**63)
        with pytest.raises(ValueError):
            write_svarint(bytearray(), -(2**63) - 1)

    def test_overlong_varint_rejected(self, buffer):
        reader = ByteReader(buffer(b"\x80" * MAX_VARINT_BYTES + b"\x01"))
        with pytest.raises(WireFormatError):
            reader.uvarint()

    def test_truncated_varint_rejected(self, buffer):
        reader = ByteReader(buffer(b"\x80\x80"))
        with pytest.raises(WireFormatError):
            reader.uvarint()

    def test_varint_at_end_of_buffer_rejected(self, buffer):
        reader = ByteReader(buffer(b"\x01"))
        assert reader.uvarint() == 1
        with pytest.raises(WireFormatError):
            reader.uvarint()


class TestFixedFields:
    def test_f64_round_trip(self, buffer):
        out = bytearray()
        write_f64(out, 1.5)
        write_f64(out, -0.25)
        reader = ByteReader(buffer(bytes(out)))
        assert reader.f64() == 1.5
        assert reader.f64() == -0.25

    def test_str_and_bytes_round_trip(self, buffer):
        out = bytearray()
        write_str(out, "héllo")
        write_bytes(out, b"\x00\xff")
        write_str(out, "")
        reader = ByteReader(buffer(bytes(out)))
        assert reader.str_() == "héllo"
        blob = reader.bytes_()
        assert blob == b"\x00\xff"
        assert type(blob) is bytes
        assert reader.str_() == ""
        reader.expect_eof()

    def test_bool_round_trip_and_strictness(self, buffer):
        out = bytearray()
        write_bool(out, True)
        write_bool(out, False)
        reader = ByteReader(buffer(bytes(out)))
        assert reader.bool_() is True
        assert reader.bool_() is False
        with pytest.raises(WireFormatError):
            ByteReader(buffer(b"\x02")).bool_()

    def test_u8_bounds(self):
        with pytest.raises(ValueError):
            write_u8(bytearray(), 256)
        with pytest.raises(ValueError):
            write_u8(bytearray(), -1)

    @pytest.mark.parametrize("invalid", [b"\xff\xfe", b"ok\xc3", b"\xed\xa0\x80"])
    def test_invalid_utf8_rejected(self, invalid, buffer):
        out = bytearray()
        write_bytes(out, invalid)
        with pytest.raises(WireFormatError):
            ByteReader(buffer(bytes(out))).str_()


class TestByteReader:
    def test_truncated_raw_read(self, buffer):
        reader = ByteReader(buffer(b"abc"))
        with pytest.raises(WireFormatError):
            reader.raw(4)

    @pytest.mark.parametrize("read", ["bytes_", "str_"])
    def test_length_prefix_past_the_end_rejected(self, read, buffer):
        out = bytearray()
        write_uvarint(out, 10)
        out += b"abc"
        reader = ByteReader(buffer(bytes(out)))
        with pytest.raises(WireFormatError):
            getattr(reader, read)()

    def test_truncated_fixed_width_reads_rejected(self, buffer):
        with pytest.raises(WireFormatError):
            ByteReader(buffer(b"\x00" * 7)).f64()
        with pytest.raises(WireFormatError):
            ByteReader(buffer(b"")).u8()

    def test_trailing_bytes_detected(self, buffer):
        reader = ByteReader(buffer(b"ab"))
        reader.raw(1)
        with pytest.raises(WireFormatError):
            reader.expect_eof()
        reader.raw(1)
        reader.expect_eof()

    def test_remaining_and_offset_track_reads(self, buffer):
        reader = ByteReader(buffer(b"abcd"))
        assert reader.remaining == 4
        reader.raw(3)
        assert reader.offset == 3
        assert reader.remaining == 1
