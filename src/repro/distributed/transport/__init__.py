"""Pluggable transport backends for the distributed matching system.

Two implementations of :class:`~repro.distributed.transport.base.Transport`
exist today:

* ``"sim"`` — :class:`~repro.distributed.network.SimulatedNetwork`, the
  deterministic event-driven simulator on a virtual clock (PR 3);
* ``"tcp"`` — :class:`~repro.distributed.transport.tcp.TcpTransportManager`'s
  per-round transports, where stations run as real localhost worker processes
  speaking the same length-prefixed ``DIMW`` frames over asyncio TCP sockets,
  with real stop-and-wait timeouts and a byte-level fault proxy.

Select a backend with ``TransportSpec(transport="sim" | "tcp")`` on a
:class:`~repro.cluster.spec.ClusterSpec`; every facade verb works unchanged
on both.  This package's ``__init__`` imports only :mod:`.base`, the
interface and the one round ledger both backends run on, so the simulator can
depend on it without a cycle — the TCP stack loads lazily on first use.
"""

from repro.core.config import TRANSPORT_CHOICES
from repro.distributed.transport.base import FrameStats, PhaseOutcome, Transport

#: Transport backends a deployment may select (re-exported from core config).
TRANSPORT_BACKENDS = TRANSPORT_CHOICES

__all__ = [
    "FrameStats",
    "PhaseOutcome",
    "Transport",
    "TRANSPORT_BACKENDS",
]
