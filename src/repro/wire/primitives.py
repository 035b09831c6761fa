"""Low-level field encodings shared by every wire codec.

Integers travel as LEB128 varints (unsigned, or zigzag-mapped for signed
values) so small values — bit positions, table indices, pattern values — cost
one or two bytes instead of a fixed eight.  Floats are big-endian IEEE-754
doubles; strings and byte blobs are length-prefixed.  All reads go through
:class:`ByteReader`, which turns every malformed-input condition into a typed
:class:`~repro.wire.errors.WireFormatError` instead of a bare ``IndexError``.
"""

from __future__ import annotations

import struct
from fractions import Fraction

from repro.wire.errors import WireFormatError

#: Longest accepted varint: 10 bytes encode up to 70 payload bits, enough for
#: any 64-bit value.  Longer runs are rejected as corrupt rather than decoded
#: into unbounded Python integers.
MAX_VARINT_BYTES = 10

_U64_MAX = (1 << 64) - 1


def write_uvarint(out: bytearray, value: int) -> None:
    """Append ``value`` as an unsigned LEB128 varint."""
    if 0 <= value < 0x80:
        # Lengths, counts and table indices are almost always one byte.
        out.append(value)
        return
    if value < 0:
        raise ValueError(f"uvarint value must be >= 0, got {value}")
    if value > _U64_MAX:
        raise ValueError(f"uvarint value must fit in 64 bits, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def write_svarint(out: bytearray, value: int) -> None:
    """Append ``value`` as a zigzag-mapped signed varint."""
    if not -(1 << 63) <= value < (1 << 63):
        raise ValueError(f"svarint value must fit in 64 bits, got {value}")
    write_uvarint(out, (value << 1) ^ (value >> 63))


def write_u8(out: bytearray, value: int) -> None:
    """Append one unsigned byte."""
    if not 0 <= value <= 0xFF:
        raise ValueError(f"u8 value out of range: {value}")
    out.append(value)


def write_f64(out: bytearray, value: float) -> None:
    """Append a big-endian IEEE-754 double."""
    out += struct.pack(">d", value)


def write_bytes(out: bytearray, data: bytes) -> None:
    """Append a length-prefixed byte blob."""
    write_uvarint(out, len(data))
    out += data


def write_str(out: bytearray, text: str) -> None:
    """Append a length-prefixed UTF-8 string."""
    data = text.encode("utf-8")
    write_uvarint(out, len(data))
    out += data


def write_bool(out: bytearray, value: bool) -> None:
    """Append a boolean as one byte (0 or 1)."""
    out.append(1 if value else 0)


def write_fraction(out: bytearray, fraction: Fraction) -> None:
    """Append an exact fraction as signed numerator + unsigned denominator.

    The single definition of the fraction wire layout — weight values, match
    reports and anything else carrying a :class:`fractions.Fraction` must go
    through here so the encodings cannot diverge.  Raises :class:`ValueError`
    when either component exceeds the wire's 64-bit numeric range.
    """
    write_svarint(out, fraction.numerator)
    write_uvarint(out, fraction.denominator)


#: Every one-byte uvarint, pre-built: lengths and table indices are almost
#: always below 128.
_ONE_BYTE_UVARINTS = tuple(bytes((value,)) for value in range(0x80))


def uvarint_bytes(value: int) -> bytes:
    """The bytes :func:`write_uvarint` appends for ``value``."""
    if 0 <= value < 0x80:
        return _ONE_BYTE_UVARINTS[value]
    if 0x80 <= value < 0x4000:
        # Two bytes: a payload block's length in every broadcast frame.
        return bytes((value & 0x7F | 0x80, value >> 7))
    out = bytearray()
    write_uvarint(out, value)
    return bytes(out)


def uvarint_size(value: int) -> int:
    """Number of bytes :func:`write_uvarint` produces for ``value``."""
    if value < 0 or value > _U64_MAX:
        raise ValueError(f"uvarint value out of range: {value}")
    size = 1
    while value > 0x7F:
        value >>= 7
        size += 1
    return size


class ByteReader:
    """Sequential reader over an immutable buffer with typed failure modes.

    Every accessor raises :class:`WireFormatError` when the buffer is too
    short, a varint overruns its maximum width, or a value is structurally
    invalid — decoding a truncated or corrupted message can never escape as a
    low-level exception.

    The reader is zero-copy at construction: ``bytes`` and ``memoryview``
    buffers are referenced directly and a ``bytearray`` is wrapped in a
    :class:`memoryview` rather than copied, so decoding a payload embedded in
    a larger frame never duplicates the frame.  Bytes are materialized only at
    the accessors that must hand out ``bytes`` (:meth:`raw` and everything
    built on it); :meth:`str_` decodes straight from the buffer, and
    :meth:`blob_view` hands out a slice of it.
    """

    __slots__ = ("_data", "_offset")

    def __init__(self, data: "bytes | bytearray | memoryview") -> None:
        if data.__class__ is bytes or data.__class__ is memoryview:
            self._data: "bytes | memoryview" = data
        elif isinstance(data, bytearray):
            self._data = memoryview(data)
        else:
            self._data = bytes(data)
        self._offset = 0

    @property
    def offset(self) -> int:
        """Current read position."""
        return self._offset

    @property
    def remaining(self) -> int:
        """Number of unread bytes."""
        return len(self._data) - self._offset

    def _take(self, count: int) -> "bytes | memoryview":
        """The next ``count`` bytes as a slice of the buffer; advances past them."""
        if count < 0:
            raise WireFormatError(f"cannot read a negative byte count ({count})")
        data = self._data
        start = self._offset
        end = start + count
        if end > len(data):
            raise WireFormatError(
                f"buffer truncated: needed {count} bytes at offset {start}, "
                f"only {len(data) - start} remain"
            )
        self._offset = end
        return data[start:end]

    def raw(self, count: int) -> bytes:
        """Read exactly ``count`` raw bytes."""
        chunk = self._take(count)
        return chunk if chunk.__class__ is bytes else bytes(chunk)

    def u8(self) -> int:
        """Read one unsigned byte."""
        data = self._data
        offset = self._offset
        if offset >= len(data):
            raise WireFormatError(
                f"buffer truncated: needed 1 bytes at offset {offset}, only 0 remain"
            )
        self._offset = offset + 1
        return data[offset]

    def uvarint(self) -> int:
        """Read an unsigned LEB128 varint."""
        data = self._data
        offset = self._offset
        length = len(data)
        if offset < length and data[offset] < 0x80:
            self._offset = offset + 1
            return data[offset]
        result = 0
        shift = 0
        consumed = 0
        while consumed < MAX_VARINT_BYTES:
            if offset >= length:
                self._offset = offset
                raise WireFormatError(
                    f"buffer truncated: needed 1 bytes at offset {offset}, only 0 remain"
                )
            byte = data[offset]
            offset += 1
            consumed += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                self._offset = offset
                if result > _U64_MAX:
                    raise WireFormatError(f"varint exceeds 64 bits at offset {offset}")
                return result
            shift += 7
        self._offset = offset
        raise WireFormatError(
            f"varint longer than {MAX_VARINT_BYTES} bytes at offset {offset}"
        )

    def svarint(self) -> int:
        """Read a zigzag-mapped signed varint."""
        raw = self.uvarint()
        return (raw >> 1) ^ -(raw & 1)

    def f64(self) -> float:
        """Read a big-endian IEEE-754 double."""
        return struct.unpack(">d", self.raw(8))[0]

    def bytes_(self) -> bytes:
        """Read a length-prefixed byte blob."""
        return self.raw(self.uvarint())

    def blob_view(self) -> "bytes | memoryview":
        """Read a length-prefixed byte blob as a slice of the buffer.

        Over a ``memoryview`` buffer the slice is a view, not a copy; it stays
        valid as long as the buffer does.
        """
        return self._take(self.uvarint())

    def str_(self) -> str:
        """Read a length-prefixed UTF-8 string."""
        data = self._data
        offset = self._offset
        if offset < len(data) and data[offset] < 0x80:
            # A one-byte length (strings under 128 bytes): sliced in place.
            end = offset + 1 + data[offset]
            if end > len(data):
                self._take(self.uvarint())  # raises the truncation error
            self._offset = end
            chunk = data[offset + 1 : end]
        else:
            chunk = self._take(self.uvarint())
        try:
            return str(chunk, "utf-8")
        except UnicodeDecodeError as error:
            raise WireFormatError(f"invalid UTF-8 string at offset {self._offset}") from error

    def bool_(self) -> bool:
        """Read a boolean byte (must be exactly 0 or 1)."""
        value = self.u8()
        if value > 1:
            raise WireFormatError(f"invalid boolean byte {value} at offset {self._offset}")
        return bool(value)

    def fraction_terms(self) -> tuple[int, int]:
        """Read a :func:`write_fraction` pair as ``(numerator, denominator)``.

        Zero denominators are corrupt.
        """
        numerator = self.svarint()
        denominator = self.uvarint()
        if denominator == 0:
            raise WireFormatError(f"fraction with zero denominator at offset {self._offset}")
        return numerator, denominator

    def fraction(self) -> Fraction:
        """Read a :func:`write_fraction` pair as a :class:`~fractions.Fraction`."""
        return Fraction(*self.fraction_terms())

    def expect_eof(self) -> None:
        """Raise unless the whole buffer has been consumed."""
        if self.remaining:
            raise WireFormatError(
                f"{self.remaining} trailing bytes after decoded value at offset {self._offset}"
            )
