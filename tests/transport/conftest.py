"""Shared fixtures of the cross-transport suites.

One small synthetic city and two query batches are built once per session;
every test stands its deployments up from :func:`make_spec`, so a sim/tcp
pair differs in exactly one field — ``TransportSpec.transport`` — and any
result divergence is attributable to the backend alone.  TCP deployments get
their worker-connect deadline stretched through :func:`tests.transport.util.generous`.
Like every module of the suite, each module here fails if it leaves a worker
process, a socket or a worker's stderr file behind (``tests/conftest.py``).
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterSpec, ProtocolSpec
from repro.cluster.spec import FaultSpec, TransportSpec
from repro.datagen.workload import DatasetSpec, build_dataset, build_query_workload

from .util import generous


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
        faults=FaultSpec(
            profile=profile, net_seed=net_seed, allow_partial=allow_partial
        ),
    )


def open_cluster(dataset, transport: str, **kwargs) -> Cluster:
    return Cluster(make_spec(transport, **kwargs), dataset=dataset)
