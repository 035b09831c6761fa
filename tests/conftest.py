"""Shared fixtures for the test suite.

The fixtures build small but structurally complete synthetic datasets so tests run
fast while still exercising the distributed / incomplete-pattern structure the paper
relies on (multiple stations, split users, decoys, cliques).

Every module is also checked for shared-memory leaks
(:func:`no_shared_memory_leaks`): a module that leaves one of the process
executor's ``/dev/shm/psm_*`` artifact segments behind fails.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Allow running the tests from a source checkout without installation.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.config import DIMatchingConfig  # noqa: E402

#: Where POSIX shared memory lives; ``multiprocessing.shared_memory`` names
#: its segments ``psm_*``.
_SHM = Path("/dev/shm")


def shared_segments() -> set[str]:
    """The names of the ``psm_*`` shared-memory segments that exist now."""
    return {path.name for path in _SHM.glob("psm_*")}


@pytest.fixture(scope="module", autouse=True)
def no_shared_memory_leaks():
    """Fail a module that leaves a new ``/dev/shm/psm_*`` segment behind."""
    if not _SHM.is_dir():
        yield
        return
    before = shared_segments()
    yield
    assert shared_segments() - before == set(), "the module left shared-memory segments"

# The datagen layer (and therefore the dataset fixtures below) requires NumPy;
# it is imported lazily so the substrate/core tests still collect and run on
# interpreters without NumPy (the no-NumPy CI leg).


def _datagen():
    from repro.datagen.workload import DatasetSpec, build_dataset, build_query_workload

    return DatasetSpec, build_dataset, build_query_workload


@pytest.fixture(scope="session")
def small_spec():
    """A small dataset specification shared by most integration-style tests."""
    DatasetSpec, _, _ = _datagen()
    return DatasetSpec(
        users_per_category=8,
        station_count=4,
        days=1,
        intervals_per_day=24,
        noise_level=0,
        cliques_per_place=2,
        replicated_decoys_per_category=1,
        seed=42,
    )


@pytest.fixture(scope="session")
def small_dataset(small_spec):
    """A small exact-matching dataset (no noise)."""
    _, build_dataset, _ = _datagen()
    return build_dataset(small_spec)


@pytest.fixture(scope="session")
def small_workload(small_dataset):
    """A six-query workload over the small dataset (ε = 0)."""
    _, _, build_query_workload = _datagen()
    return build_query_workload(small_dataset, query_count=6, epsilon=0, seed=7)


@pytest.fixture(scope="session")
def noisy_dataset():
    """A dataset with timing jitter, used by ε > 0 tests."""
    DatasetSpec, build_dataset, _ = _datagen()
    return build_dataset(
        DatasetSpec(
            users_per_category=8,
            station_count=4,
            days=1,
            intervals_per_day=24,
            noise_level=1,
            cliques_per_place=2,
            replicated_decoys_per_category=1,
            seed=11,
        )
    )


@pytest.fixture(scope="session")
def noisy_workload(noisy_dataset):
    """A workload over the noisy dataset with ε = 2."""
    _, _, build_query_workload = _datagen()
    return build_query_workload(noisy_dataset, query_count=6, epsilon=2, seed=13)


@pytest.fixture(scope="session")
def exact_config() -> DIMatchingConfig:
    """DI-matching configuration for exact (ε = 0) matching."""
    return DIMatchingConfig(epsilon=0, sample_count=12, hash_count=4)


@pytest.fixture(scope="session")
def approx_config() -> DIMatchingConfig:
    """DI-matching configuration for approximate (ε = 2) matching."""
    return DIMatchingConfig(epsilon=2, sample_count=12, hash_count=4)
