"""The TCP transport manager releases what it holds on shutdown.

A manager whose loop outlives ``shutdown()`` leaks the loop's selector and
self-pipe sockets until garbage collection (``python -X dev`` reports
``ResourceWarning: unclosed event loop``).  A cluster left through a failed
round shuts its manager down too: its workers exit and their stderr files go.
"""

from __future__ import annotations

import os

import pytest

from repro.cluster import RoundOptions
from repro.distributed.events import RoundTimeoutError
from repro.distributed.network import NetworkConfig
from repro.distributed.transport.tcp import TcpTransportManager

from . import test_chaos_proxy as chaos
from .conftest import open_cluster
from .util import generous, wait_until

pytestmark = pytest.mark.transport


def test_shutdown_closes_the_event_loop_and_is_idempotent():
    manager = TcpTransportManager(NetworkConfig(), connect_timeout_s=generous(30.0))
    assert not manager.loop.is_closed()
    manager.shutdown()
    assert manager.loop.is_closed()
    manager.shutdown()  # a second call is a no-op, not a close of a closed loop
    assert manager.loop.is_closed()


def test_a_round_timeout_leaving_the_with_block_stops_the_workers(dataset, batch_a):
    # A seed whose single-attempt lossy round fails on the simulator fails on
    # TCP too (the chaos suite pins that parity).
    net_seed = chaos.TestFailurePathParity._probe_seeds(
        dataset, batch_a, want_failure=True
    )
    cluster = open_cluster(
        dataset, "tcp", profile="lossy", net_seed=net_seed, max_attempts=1
    )
    with pytest.raises(RoundTimeoutError):
        with cluster:
            cluster.subscribe(batch_a)
            try:
                cluster.round(RoundOptions(net_seed=net_seed))
            finally:
                manager = cluster._tcp_manager
                procs = list(manager._procs.values())
                logs = list(manager._stderr_paths.values())
    assert procs, "the round must have spawned station workers"
    wait_until(
        lambda: all(proc.poll() is not None for proc in procs),
        timeout_s=10.0,
        what="station workers to exit after the with block",
        describe=lambda: [proc.poll() for proc in procs],
    )
    assert [path for path in logs if os.path.exists(path)] == []
