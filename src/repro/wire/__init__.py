"""Binary wire codec for the distributed matching protocols.

The package turns every artifact the protocols exchange — Bloom and Weighted
Bloom filters, encoded query batches, raw patterns and queries, match reports,
and whole :class:`~repro.distributed.messages.Message` envelopes — into a
self-describing, canonical byte encoding with one header version, and back.
The simulated environment charges *these* byte counts (not estimates) as its
communication and storage cost model; see :mod:`repro.wire.codec` for the
format.
"""

from repro.wire.codec import (
    FLAG_ZLIB,
    MAGIC,
    WIRE_VERSION,
    decode,
    encode,
    encode_cached,
    encoded_size,
    message_envelope_size,
    object_revision,
)
from repro.wire.errors import UnsupportedWireTypeError, WireFormatError
from repro.wire.primitives import ByteReader
from repro.wire.stream import (
    MAX_FRAME_BYTES,
    STREAM_HEADER_SIZE,
    STREAM_MAGIC,
    FrameStreamDecoder,
    StreamFrame,
    encode_stream_frame,
)

__all__ = [
    "FLAG_ZLIB",
    "MAGIC",
    "WIRE_VERSION",
    "decode",
    "encode",
    "encode_cached",
    "encoded_size",
    "message_envelope_size",
    "object_revision",
    "UnsupportedWireTypeError",
    "WireFormatError",
    "ByteReader",
    "MAX_FRAME_BYTES",
    "STREAM_HEADER_SIZE",
    "STREAM_MAGIC",
    "FrameStreamDecoder",
    "StreamFrame",
    "encode_stream_frame",
]
