"""Base class for simulated nodes (the data center and the base stations)."""

from __future__ import annotations

from repro.distributed.messages import Message
from repro.wire.codec import decode_frame


class Node:
    """A named participant in the simulated environment with an inbox.

    Transports deliver raw wire bytes: a frame as an envelope head plus its
    payload block (:meth:`receive_frame`, the path the simulated transport
    uses) or as one buffer (:meth:`receive_wire`, the TCP backend's
    in-process replay).  Both decode and then hand the message to
    :meth:`receive`.  Every message a transport delivers has passed through
    the real binary decode, so a corrupted frame surfaces as a typed
    :class:`~repro.wire.errors.WireFormatError` here, never as wrong data.
    """

    def __init__(self, node_id: str) -> None:
        self._node_id = str(node_id)
        self._inbox: list[Message] = []

    @property
    def node_id(self) -> str:
        """Unique identifier of this node."""
        return self._node_id

    @property
    def inbox(self) -> list[Message]:
        """Messages received, in arrival order."""
        return list(self._inbox)

    def receive(self, message: Message) -> None:
        """Deliver an already-decoded ``message`` to this node."""
        if message.recipient != self._node_id:
            raise ValueError(
                f"message addressed to {message.recipient!r} delivered to {self._node_id!r}"
            )
        self._inbox.append(message)

    def receive_wire(self, data: bytes, backend: str = "auto") -> Message:
        """Decode ``data`` through the wire codec and deliver the message.

        Raises :class:`~repro.wire.errors.WireFormatError` when the bytes are
        not a valid message encoding (the transport treats that as frame loss
        and retransmits) and :class:`ValueError` when the decoded message is
        addressed to another node.  Returns the decoded message.
        """
        message = Message.from_wire(data, backend=backend)
        self.receive(message)
        return message

    def receive_frame(self, head: bytes, payload: bytes, backend: str = "auto") -> Message:
        """:meth:`receive_wire` of ``head + payload``, without joining them.

        The frames of a broadcast share one ``payload`` object, which the
        decode finds its artifact by (:func:`repro.wire.codec.decode_frame`).
        Raises exactly what :meth:`receive_wire` raises for the joined frame.
        """
        message = decode_frame(head, payload, backend)
        self.receive(message)
        return message

    def clear_inbox(self) -> None:
        """Discard all received messages."""
        self._inbox.clear()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(node_id={self._node_id!r}, inbox={len(self._inbox)})"
