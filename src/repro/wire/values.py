"""Tagged encoding of scalar values and small tuples.

The Weighted Bloom Filter is weight-type-agnostic ("any hashable value"), so
the codec needs a self-describing encoding for the weight domain actually used
by the protocols — exact :class:`fractions.Fraction` weights, the
``(query_id, Fraction)`` qualified weights of batched DI-matching, and the
plain scalars of control payloads.  Every value is one tag byte followed by a
tag-specific body; tuples nest.

The byte encoding of a value is canonical (no two encodings for the same
value), which lets the WBF codec sort its weight table by encoded bytes and
produce identical output regardless of the insertion order or bit backend the
filter was built with.
"""

from __future__ import annotations

from fractions import Fraction

from repro.wire.errors import UnsupportedWireTypeError, WireFormatError
from repro.wire.primitives import (
    ByteReader,
    write_bytes,
    write_f64,
    write_fraction,
    write_str,
    write_svarint,
    write_u8,
    write_uvarint,
)

_VAL_NONE = 0x00
_VAL_FALSE = 0x01
_VAL_TRUE = 0x02
_VAL_INT = 0x03
_VAL_FLOAT = 0x04
_VAL_STR = 0x05
_VAL_BYTES = 0x06
_VAL_FRACTION = 0x07
_VAL_TUPLE = 0x08


def write_value(out: bytearray, value: object) -> None:
    """Append one tagged value.

    Raises :class:`UnsupportedWireTypeError` for types without a wire encoding
    *and* for integers / fraction components outside the wire's 64-bit numeric
    range — both mean "this payload cannot travel in this format", and a
    message carrying either fails to size or send.
    """
    try:
        _write_value_checked(out, value)
    except ValueError as error:
        raise UnsupportedWireTypeError(
            f"value outside the wire's 64-bit numeric range: {error}"
        ) from error


def _write_value_checked(out: bytearray, value: object) -> None:
    if value is None:
        write_u8(out, _VAL_NONE)
    elif isinstance(value, bool):
        write_u8(out, _VAL_TRUE if value else _VAL_FALSE)
    elif isinstance(value, Fraction):
        write_u8(out, _VAL_FRACTION)
        write_fraction(out, value)
    elif isinstance(value, int):
        write_u8(out, _VAL_INT)
        write_svarint(out, value)
    elif isinstance(value, float):
        write_u8(out, _VAL_FLOAT)
        write_f64(out, value)
    elif isinstance(value, str):
        write_u8(out, _VAL_STR)
        write_str(out, value)
    elif isinstance(value, (bytes, bytearray)):
        write_u8(out, _VAL_BYTES)
        write_bytes(out, bytes(value))
    elif isinstance(value, tuple):
        write_u8(out, _VAL_TUPLE)
        write_uvarint(out, len(value))
        for part in value:
            write_value(out, part)
    else:
        raise UnsupportedWireTypeError(
            f"no wire encoding for value of type {type(value).__name__}"
        )


def encode_value(value: object) -> bytes:
    """Encode one value to standalone bytes (used for canonical sorting)."""
    out = bytearray()
    write_value(out, value)
    return bytes(out)


def read_value(reader: ByteReader) -> object:
    """Read one tagged value."""
    tag = reader.u8()
    if tag == _VAL_NONE:
        return None
    if tag == _VAL_FALSE:
        return False
    if tag == _VAL_TRUE:
        return True
    if tag == _VAL_INT:
        return reader.svarint()
    if tag == _VAL_FLOAT:
        return reader.f64()
    if tag == _VAL_STR:
        return reader.str_()
    if tag == _VAL_BYTES:
        return reader.bytes_()
    if tag == _VAL_FRACTION:
        return reader.fraction()
    if tag == _VAL_TUPLE:
        count = reader.uvarint()
        return tuple(read_value(reader) for _ in range(count))
    raise WireFormatError(f"unknown value tag 0x{tag:02x}")
