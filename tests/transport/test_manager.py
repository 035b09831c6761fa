"""The TCP transport manager releases its event loop on shutdown.

A manager whose loop outlives ``shutdown()`` leaks the loop's selector and
self-pipe sockets until garbage collection (``python -X dev`` reports
``ResourceWarning: unclosed event loop``).
"""

from __future__ import annotations

import pytest

from repro.distributed.network import NetworkConfig
from repro.distributed.transport.tcp import TcpTransportManager

from .util import generous

pytestmark = pytest.mark.transport


def test_shutdown_closes_the_event_loop_and_is_idempotent():
    manager = TcpTransportManager(NetworkConfig(), connect_timeout_s=generous(30.0))
    assert not manager.loop.is_closed()
    manager.shutdown()
    assert manager.loop.is_closed()
    manager.shutdown()  # a second call is a no-op, not a close of a closed loop
    assert manager.loop.is_closed()
