"""Shared driver for the seed-replay simulation-test harness.

Every simulation test is parameterized by the deterministic triple
``(dataset seed, net seed, fault profile)``: the dataset seed fixes the city
and the workload, the net seed and profile fix every transport fault.  A
failing grid case is reproduced by re-running :func:`run_round` with the
triple printed in the test id — nothing else feeds the run.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.cluster import Cluster
from repro.core.config import DIMatchingConfig
from repro.core.dimatching import DIMatchingProtocol
from repro.datagen.workload import DatasetSpec, build_dataset, build_query_workload
from repro.distributed.faults import FaultPlan
from repro.distributed.simulator import SimulationOutcome

#: Workload size shared by every harness round — small enough that the fault
#: grid stays fast, large enough that every station stores patterns and every
#: round crosses the wire in both directions.
USERS_PER_CATEGORY = 6
STATION_COUNT = 4
QUERY_COUNT = 4


@dataclass(frozen=True)
class RoundEnvironment:
    """One dataset seed's reusable dataset + workload + reference results."""

    dataset: object
    queries: tuple
    config: DIMatchingConfig


_ENVIRONMENTS: dict[int, RoundEnvironment] = {}


def environment_for(dataset_seed: int) -> RoundEnvironment:
    """Build (once) the dataset/workload/config for one dataset seed."""
    cached = _ENVIRONMENTS.get(dataset_seed)
    if cached is not None:
        return cached
    dataset = build_dataset(
        DatasetSpec(
            users_per_category=USERS_PER_CATEGORY,
            station_count=STATION_COUNT,
            noise_level=0,
            seed=dataset_seed,
        )
    )
    workload = build_query_workload(dataset, QUERY_COUNT, epsilon=0, seed=dataset_seed)
    config = DIMatchingConfig(epsilon=0, sample_count=12, hash_count=4)
    env = RoundEnvironment(dataset=dataset, queries=tuple(workload.queries), config=config)
    _ENVIRONMENTS[dataset_seed] = env
    return env


def run_round(
    dataset_seed: int,
    net_seed: int,
    profile: "str | FaultPlan",
    allow_partial: bool = False,
) -> SimulationOutcome:
    """Run one full DI-matching round under the given deterministic triple."""
    env = environment_for(dataset_seed)
    with Cluster.adopt(
        env.dataset,
        fault_plan=profile,
        net_seed=net_seed,
        allow_partial=allow_partial,
    ) as cluster:
        return cluster.drive(DIMatchingProtocol(env.config), list(env.queries))


@pytest.fixture(scope="session")
def reference_outcome() -> SimulationOutcome:
    """The fault-free reference round for the harness's default dataset seed."""
    return run_round(dataset_seed=31, net_seed=0, profile="none")
