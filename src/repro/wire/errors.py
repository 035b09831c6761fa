"""Typed errors raised by the binary wire codec."""

from __future__ import annotations

from repro.core.exceptions import ReproError


class WireFormatError(ReproError):
    """Raised when a wire buffer cannot be decoded.

    Covers every malformed-input condition: bad magic, unknown version or type
    tag, truncated buffers, oversized varints, out-of-range indices, corrupt
    compressed bodies and trailing garbage.  Decoders never let a malformed
    buffer surface as a bare ``struct.error`` / ``IndexError`` / ``zlib.error``.
    """


class UnsupportedWireTypeError(WireFormatError):
    """Raised when an object has no registered wire encoding.

    The codec is the only byte model: the message layer and both transports
    let this propagate, so such a payload is never charged or sent.
    """
