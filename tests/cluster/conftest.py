"""Shared fixtures for the cluster facade suite."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterSpec, ProtocolSpec
from repro.core.config import DIMatchingConfig
from repro.datagen.workload import DatasetSpec


@pytest.fixture(scope="session")
def tiny_dataset_spec() -> DatasetSpec:
    """A tiny-but-complete city: split users, decoys, several stations."""
    return DatasetSpec(
        users_per_category=4,
        station_count=4,
        days=1,
        intervals_per_day=24,
        noise_level=0,
        cliques_per_place=2,
        replicated_decoys_per_category=1,
        seed=2026,
    )


@pytest.fixture()
def wbf_spec(tiny_dataset_spec) -> ClusterSpec:
    """A WBF deployment over the tiny city."""
    return ClusterSpec(
        name="test-wbf",
        dataset=tiny_dataset_spec,
        protocol=ProtocolSpec(
            method="wbf",
            config=DIMatchingConfig(epsilon=0, sample_count=12, hash_count=4),
        ),
    )


@pytest.fixture()
def cluster(wbf_spec) -> Cluster:
    with Cluster(wbf_spec) as deployed:
        yield deployed


@pytest.fixture()
def queries(cluster):
    """A three-query batch sampled from the cluster's own dataset."""
    from repro.datagen.workload import build_query_workload

    return list(
        build_query_workload(cluster.dataset, query_count=3, epsilon=0, seed=5).queries
    )
