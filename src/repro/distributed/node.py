"""Base class for simulated nodes (the data center and the base stations)."""

from __future__ import annotations

from repro.distributed.messages import Message, MessageKind
from repro.wire.codec import read_frame

#: The kinds of frame that carry the round's artifact to a station.
_ARTIFACT_KINDS = (MessageKind.FILTER_DISSEMINATION, MessageKind.CONTROL)


class Node:
    """A named participant in the simulated environment with an inbox.

    Both transports deliver raw wire bytes through :meth:`receive_frame`: a
    frame as its envelope head plus its payload block.  :meth:`receive_wire`
    takes a frame as one buffer; a head that :meth:`receive_frame` cannot
    read by slicing falls back to it.  Every message a transport delivers has passed through
    the real binary decode, so a corrupted frame surfaces as a typed
    :class:`~repro.wire.errors.WireFormatError` here, never as wrong data.

    The inbox is kept as columns — sender, kind and decoded payload per
    delivery — so a phase that delivers a frame to each of 10,000 nodes
    builds no :class:`Message`; :attr:`inbox` builds them when it is read.
    """

    def __init__(self, node_id: str) -> None:
        self._node_id = str(node_id)
        self._senders: list[str] = []
        self._kinds: list[MessageKind] = []
        self._payloads: list[object] = []

    @property
    def node_id(self) -> str:
        """Unique identifier of this node."""
        return self._node_id

    @property
    def inbox(self) -> list[Message]:
        """Messages received, in arrival order."""
        node_id = self._node_id
        return [
            Message(sender, node_id, kind, payload)
            for sender, kind, payload in zip(self._senders, self._kinds, self._payloads)
        ]

    def _deliver(self, sender: str, recipient: str, kind: MessageKind, payload: object) -> None:
        if recipient != self._node_id:
            raise ValueError(
                f"message addressed to {recipient!r} delivered to {self._node_id!r}"
            )
        self._senders.append(sender)
        self._kinds.append(kind)
        self._payloads.append(payload)

    def receive(self, message: Message) -> None:
        """Deliver an already-decoded ``message`` to this node."""
        self._deliver(message.sender, message.recipient, message.kind, message.payload)

    def receive_wire(self, data: bytes) -> Message:
        """Decode ``data`` through the wire codec and deliver the message.

        Raises :class:`~repro.wire.errors.WireFormatError` when the bytes are
        not a valid message encoding (the transport treats that as frame loss
        and retransmits) and :class:`ValueError` when the decoded message is
        addressed to another node.  Returns the decoded message.
        """
        message = Message.from_wire(data)
        self.receive(message)
        return message

    def receive_frame(self, head: bytes, payload: bytes) -> None:
        """:meth:`receive_wire` of ``head + payload``, without joining them.

        A canonical head is parsed straight into the inbox's columns, and the
        frames of a broadcast share one ``payload`` object, which the decode
        finds its artifact by (:func:`repro.wire.codec.read_frame`).  Raises
        exactly what :meth:`receive_wire` raises for the joined frame.
        """
        fields = read_frame(head, payload)
        if fields is None:
            self.receive_wire(head + payload)
        else:
            self._deliver(*fields)

    def latest_artifact(self) -> object | None:
        """The payload of the most recent dissemination or control message.

        This is the artifact the node actually decoded off the wire — what a
        station's matching phase runs against, and what a regional
        aggregator relays.  Raises :class:`LookupError` when no dissemination
        reached this node (e.g. its downlink timed out in a partial round).
        """
        kinds = self._kinds
        for index in range(len(kinds) - 1, -1, -1):
            if kinds[index] in _ARTIFACT_KINDS:
                return self._payloads[index]
        raise LookupError(f"{self._node_id!r} never received a dissemination")

    def clear_inbox(self) -> None:
        """Discard all received messages."""
        self._senders.clear()
        self._kinds.clear()
        self._payloads.clear()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(node_id={self._node_id!r}, inbox={len(self._senders)})"
