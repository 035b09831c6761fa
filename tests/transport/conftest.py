"""Shared fixtures of the cross-transport suites.

One small synthetic city and two query batches are built once per session;
every test stands its deployments up from :func:`make_spec`, so a sim/tcp
pair differs in exactly one field — ``TransportSpec.transport`` — and any
result divergence is attributable to the backend alone.  TCP deployments get
their worker-connect deadline stretched through :func:`tests.transport.util.generous`.

Every module here is also checked for leaks (:func:`no_leaks`): a module
that leaves a worker process running, a socket open or a worker's stderr
file behind fails.
"""

from __future__ import annotations

import glob
import os
import tempfile

import pytest

from repro.cluster import Cluster, ClusterSpec, ProtocolSpec
from repro.cluster.spec import ExecutorSpec, FaultSpec, TransportSpec
from repro.datagen.workload import DatasetSpec, build_dataset, build_query_workload

from .util import generous, wait_until


def _children() -> set[int]:
    """This process's child pids, over all of its threads."""
    pids: set[int] = set()
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path) as handle:
                pids.update(int(pid) for pid in handle.read().split())
        except OSError:  # the thread ended meanwhile
            pass
    return pids


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (an exited child waiting to be reaped does not)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _sockets() -> set[str]:
    """This process's open sockets, as ``socket:[inode]``."""
    sockets = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # closed meanwhile
            continue
        if target.startswith("socket:"):
            sockets.add(target)
    return sockets


def _worker_logs() -> set[str]:
    """The TCP workers' stderr files in the temp directory."""
    return set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-tcp-worker-*")))


@pytest.fixture(scope="module", autouse=True)
def no_leaks():
    """Fail a module that leaves a child process, a socket or a worker log behind."""
    if not os.path.isdir("/proc/self/task"):
        yield
        return
    children, sockets, logs = _children(), _sockets(), _worker_logs()
    yield

    def running() -> set[int]:
        return {pid for pid in _children() - children if _alive(pid)}

    wait_until(
        lambda: not running(),
        timeout_s=10.0,
        what="the module's child processes to exit",
        describe=running,
    )
    assert _sockets() - sockets == set(), "the module left sockets open"
    assert _worker_logs() - logs == set(), "the module left worker stderr files"

#: Small enough that a TCP round completes in well under a second, large
#: enough that every station stores patterns and ships a non-empty report.
DATASET_SPEC = DatasetSpec(
    users_per_category=3,
    station_count=3,
    days=1,
    intervals_per_day=24,
    noise_level=0,
    cliques_per_place=2,
    replicated_decoys_per_category=1,
    seed=404,
)


@pytest.fixture(scope="session")
def dataset():
    return build_dataset(DATASET_SPEC)


@pytest.fixture(scope="session")
def batch_a(dataset):
    return list(build_query_workload(dataset, query_count=3, epsilon=0, seed=1).queries)


@pytest.fixture(scope="session")
def batch_b(dataset):
    return list(build_query_workload(dataset, query_count=2, epsilon=0, seed=2).queries)


def make_spec(
    transport: str,
    *,
    profile: str = "none",
    net_seed: int = 0,
    allow_partial: bool = False,
    max_attempts: int = 8,
) -> ClusterSpec:
    """A deployment spec that differs between backends only in ``transport``."""
    return ClusterSpec(
        name=f"conformance-{transport}",
        protocol=ProtocolSpec(method="wbf"),
        transport=TransportSpec(
            transport=transport,
            max_attempts=max_attempts,
            tcp_connect_timeout_s=generous(30.0),
        ),
        executor=ExecutorSpec(),
        faults=FaultSpec(
            profile=profile, net_seed=net_seed, allow_partial=allow_partial
        ),
    )


def open_cluster(dataset, transport: str, **kwargs) -> Cluster:
    return Cluster(make_spec(transport, **kwargs), dataset=dataset)
