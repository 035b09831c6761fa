"""Shared fixtures for the test suite.

The fixtures build small but structurally complete synthetic datasets so tests run
fast while still exercising the distributed / incomplete-pattern structure the paper
relies on (multiple stations, split users, decoys, cliques).

Every module is also checked for leaks (:func:`no_leaks`): a module that
leaves a live child process, an open socket, a TCP worker's stderr file or a
``/dev/shm/psm_*`` shared-memory segment behind fails.
"""

from __future__ import annotations

import glob
import os
import sys
import tempfile
from pathlib import Path

import pytest

# Allow running the tests from a source checkout without installation.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.config import DIMatchingConfig  # noqa: E402

from .transport.util import wait_until  # noqa: E402

#: Where POSIX shared memory lives; ``multiprocessing.shared_memory`` names
#: its segments ``psm_*``.
_SHM = Path("/dev/shm")


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


def _segments() -> set[str]:
    """The names of the ``psm_*`` shared-memory segments that exist now."""
    return {path.name for path in _SHM.glob("psm_*")}


@pytest.fixture(scope="module", autouse=True)
def no_leaks():
    """Fail a module that leaves a child process, a socket, a worker log or a segment.

    The process and socket checks read ``/proc/self`` and the segment check
    ``/dev/shm``; each does nothing where its directory is missing.
    """
    procfs = os.path.isdir("/proc/self/task")
    shm = _SHM.is_dir()
    if procfs:
        children, sockets, logs = _children(), _sockets(), _worker_logs()
    if shm:
        segments = _segments()
    yield
    if procfs:

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
    if shm:
        assert _segments() - segments == set(), "the module left shared-memory segments"


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
