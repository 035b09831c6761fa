"""Messages exchanged between the data center and base stations.

A message's ``size_bytes()`` is the length of its actual binary encoding
(:mod:`repro.wire`): header, routing fields and the canonically encoded
payload.  The codec is the only byte model, so a payload outside its
vocabulary has no size: charging or sending it raises
:class:`~repro.wire.errors.UnsupportedWireTypeError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.wire.codec import (
    decode,
    encode,
    encode_cached_at,
    message_envelope_size,
    message_frame,
    object_revision,
)
from repro.wire.errors import WireFormatError


class MessageKind(str, Enum):
    """The message types used by the matching protocols."""

    #: Data center -> station: the encoded filter (or raw queries) to match against.
    FILTER_DISSEMINATION = "filter_dissemination"
    #: Station -> data center: matched (id, weight) reports or raw pattern uploads.
    MATCH_REPORT = "match_report"
    #: Control traffic (e.g. the naive method's "upload everything" trigger).
    CONTROL = "control"


@dataclass(frozen=True, init=False)
class Message:
    """A single message with explicit sender, recipient, kind and payload."""

    sender: str
    recipient: str
    kind: MessageKind
    payload: object | None = None

    #: Memo of :meth:`payload_wire` with the payload revision it was encoded
    #: at, set per instance on first use (not fields).  Plain attributes, not
    #: a ``(revision, bytes)`` tuple, which would be one more object for the
    #: garbage collector to count.
    _payload_wire_cache = None
    _payload_wire_revision = None

    def __init__(
        self,
        sender: str,
        recipient: str,
        kind: MessageKind,
        payload: object | None = None,
    ) -> None:
        # One dict update instead of a frozen ``object.__setattr__`` per
        # field: ``Node.inbox`` builds a message per delivered frame.
        self.__dict__.update(sender=sender, recipient=recipient, kind=kind, payload=payload)

    def to_wire(self, compress: bool = False) -> bytes:
        """The full binary encoding of this message (envelope plus payload).

        Raises :class:`~repro.wire.errors.UnsupportedWireTypeError` when the
        payload has no wire encoding.  The uncompressed frame is the envelope
        head joined to the memoized payload block.
        """
        if compress:
            return encode(self, compress=True)
        return message_frame(self, self.payload_wire())

    @classmethod
    def from_wire(cls, data: bytes) -> "Message":
        """Decode a message from its binary encoding.

        Raises :class:`~repro.wire.errors.WireFormatError` when ``data`` is not
        a message encoding.
        """
        decoded = decode(data)
        if not isinstance(decoded, cls):
            raise WireFormatError(
                f"buffer holds a {type(decoded).__name__}, not a Message"
            )
        return decoded

    def payload_wire(self) -> bytes:
        """The payload's own wire encoding, memoized per message instance.

        The envelope encoder embeds exactly these bytes, so building the
        envelope and charging ``payload_bytes()`` in the same round encodes the
        payload once even for list payloads (which the codec's weak-ref cache
        cannot hold).  Artifacts come from that cache, so a broadcast writes
        its payload once per artifact.  Raises
        :class:`~repro.wire.errors.UnsupportedWireTypeError` for payloads
        outside the codec's vocabulary.
        """
        revision = object_revision(self.payload)
        cached = self._payload_wire_cache
        if cached is not None and self._payload_wire_revision == revision:
            return cached
        data = encode_cached_at(self.payload, revision)
        object.__setattr__(self, "_payload_wire_cache", data)
        object.__setattr__(self, "_payload_wire_revision", revision)
        return data

    def payload_bytes(self) -> int:
        """Serialized size of the payload alone, in real codec bytes.

        Raises :class:`~repro.wire.errors.UnsupportedWireTypeError` when the
        payload has no wire encoding.
        """
        return len(self.payload_wire())

    def size_bytes(self) -> int:
        """Total on-the-wire size: the length of the actual binary encoding.

        The envelope portion is computed arithmetically around the memoized
        payload encoding, so charging a broadcast of N station messages that
        share one artifact costs one payload encode total and never
        materializes per-message envelope copies.  Raises
        :class:`~repro.wire.errors.UnsupportedWireTypeError` when the payload
        has no wire encoding.
        """
        return message_envelope_size(
            self.sender, self.recipient, len(self.payload_wire())
        )

    def __repr__(self) -> str:
        # repr must stay cheap and never raise: it shows the real size only
        # when the payload block is already memoized, and never encodes a
        # large artifact (or trips on an unencodable payload) as a printing
        # side effect.
        size = ""
        if self._payload_wire_cache is not None:
            size = f", bytes={self.size_bytes()}"
        return (
            f"Message({self.sender!r} -> {self.recipient!r}, "
            f"kind={self.kind.value}{size})"
        )
