"""Messages exchanged between the data center and base stations.

Since the wire codec (:mod:`repro.wire`) landed, a message's ``size_bytes()``
is the length of its *actual* binary encoding — header, routing fields and the
canonically encoded payload — not a per-field estimate.  The old estimate
model survives as :meth:`Message.estimated_size_bytes`: it is cross-checked
against the codec in the test suite and remains the fallback for payload
objects outside the protocol vocabulary (raw in-memory baselines).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

from repro.utils.serialization import MESSAGE_OVERHEAD_BYTES, estimate_size_bytes
from repro.wire.codec import (
    decode,
    encode,
    encode_cached_at,
    message_envelope_size,
    message_frame,
    object_revision,
)
from repro.wire.errors import UnsupportedWireTypeError, WireFormatError

#: Number of times byte accounting fell back from real codec bytes to the
#: estimate model since the last :func:`reset_estimated_size_fallbacks`.
_estimate_fallbacks = 0
_fallback_warned = False


def _note_estimate_fallback(payload: object) -> None:
    """Record (and warn once about) an estimate-model fallback.

    Mixing estimated and real bytes in one cost ledger is legitimate only for
    payloads deliberately outside the wire vocabulary (raw in-memory
    baselines); it must never happen silently, so the first fallback of a
    process warns and every fallback increments a counter the round engine
    copies onto its :class:`~repro.distributed.metrics.CostReport`.
    """
    global _estimate_fallbacks, _fallback_warned
    _estimate_fallbacks += 1
    if not _fallback_warned:
        _fallback_warned = True
        warnings.warn(
            "Message byte accounting fell back to the estimate model for a "
            f"{type(payload).__name__} payload with no wire encoding; real and "
            "estimated bytes are now mixed in this process's cost ledgers "
            "(reported once; see CostReport.extra['estimated_size_fallbacks'] "
            "for per-round counts)",
            RuntimeWarning,
            stacklevel=3,
        )


def estimated_size_fallbacks() -> int:
    """Total estimate-model fallbacks recorded since the last reset."""
    return _estimate_fallbacks


def reset_estimated_size_fallbacks() -> int:
    """Zero the fallback counter, returning the count it held."""
    global _estimate_fallbacks
    count = _estimate_fallbacks
    _estimate_fallbacks = 0
    return count


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
    """A single message with explicit sender, recipient, kind and payload.

    ``wire_version`` is the negotiated header revision the *payload frame* is
    written at (the envelope layout never changes).  It defaults to the
    codec's stable version, so every historical transcript keeps its bytes;
    hierarchical deployments mid-upgrade set it per hop from
    :func:`repro.wire.negotiate_wire_version`.
    """

    sender: str
    recipient: str
    kind: MessageKind
    payload: object | None = None
    wire_version: int = 1

    #: Memo of :meth:`payload_wire` with the payload revision it was encoded
    #: at, set per instance on first use (not fields).  Plain attributes, not
    #: a ``(revision, bytes)`` tuple: a round builds 20,000 messages, and
    #: every tuple is one more object for the garbage collector to count.
    _payload_wire_cache = None
    _payload_wire_revision = None

    def __init__(
        self,
        sender: str,
        recipient: str,
        kind: MessageKind,
        payload: object | None = None,
        wire_version: int = 1,
    ) -> None:
        # One dict update instead of a frozen ``object.__setattr__`` per
        # field: a round builds a message per frame and decodes one per
        # delivery.
        self.__dict__.update(
            sender=sender,
            recipient=recipient,
            kind=kind,
            payload=payload,
            wire_version=wire_version,
        )

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
    def from_wire(cls, data: bytes, backend: str = "auto") -> "Message":
        """Decode a message from its binary encoding.

        Raises :class:`~repro.wire.errors.WireFormatError` when ``data`` is not
        a message encoding.
        """
        decoded = decode(data, backend=backend)
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
        cannot hold).  Artifacts come from that cache, which keeps one
        encoding per wire version, so a broadcast writes its payload once per
        artifact at every negotiated hop version.  Raises
        :class:`~repro.wire.errors.UnsupportedWireTypeError` for payloads
        outside the codec's vocabulary.
        """
        revision = object_revision(self.payload)
        cached = self._payload_wire_cache
        if cached is not None and self._payload_wire_revision == revision:
            return cached
        data = encode_cached_at(self.payload, self.wire_version, revision)
        object.__setattr__(self, "_payload_wire_cache", data)
        object.__setattr__(self, "_payload_wire_revision", revision)
        return data

    def payload_bytes(self) -> int:
        """Serialized size of the payload alone (real codec bytes when possible)."""
        try:
            return len(self.payload_wire())
        except UnsupportedWireTypeError:
            _note_estimate_fallback(self.payload)
            return estimate_size_bytes(self.payload)

    def size_bytes(self) -> int:
        """Total on-the-wire size: the length of the actual binary encoding.

        The envelope portion is computed arithmetically around the memoized
        payload encoding, so charging a broadcast of N station messages that
        share one artifact costs one payload encode total and never
        materializes per-message envelope copies.  Falls back to the
        estimate-based model (fixed envelope overhead plus per-field estimate)
        only when the payload cannot be wire-encoded.
        """
        try:
            payload_size = len(self.payload_wire())
        except UnsupportedWireTypeError:
            _note_estimate_fallback(self.payload)
            return self.estimated_size_bytes()
        return message_envelope_size(self.sender, self.recipient, payload_size)

    def estimated_size_bytes(self) -> int:
        """The legacy constant-per-field cost model (envelope + payload estimate).

        Kept as a cross-checked baseline: the test suite asserts it stays
        within a documented factor of the real encoding for protocol payloads.
        """
        return MESSAGE_OVERHEAD_BYTES + estimate_size_bytes(self.payload)

    def __repr__(self) -> str:
        # repr must stay cheap: show the real size when the payload encoding
        # is already cached, otherwise the estimate — never encode a large
        # artifact as a printing side effect.
        if self._payload_wire_cache is not None:
            size = self.size_bytes()
        else:
            try:
                size = self.estimated_size_bytes()
            except TypeError:
                size = -1  # payload outside even the estimate model's shapes
        return (
            f"Message({self.sender!r} -> {self.recipient!r}, kind={self.kind.value}, "
            f"bytes={size})"
        )
