"""A transcript does not depend on ``str`` hash order.

Every (scenario, drive) pair of the replay suite runs at tiny scale in two
fresh interpreters, one with ``PYTHONHASHSEED=0`` and one with
``PYTHONHASHSEED=1``, and each printed transcript digest must equal the
pinned one in ``golden_transcripts.json``.  An in-process rerun cannot check
this: it keeps its interpreter's hash seed, so a set or dict iterated in hash
order would replay the same order both times.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from .test_replay import DRIVE_PAIRS, GOLDEN_DIGESTS

HASH_SEEDS = ("0", "1")

_ROOT = Path(__file__).resolve().parents[2]

#: Runs each ``drive:scenario`` argument and prints ``drive scenario sha256``.
_REPLAY = """
import hashlib, sys
from tests.workloads.conftest import run_tiny

for pair in sys.argv[1:]:
    drive, scenario = pair.split(":", 1)
    result = run_tiny(scenario, drive=drive)
    print(drive, scenario, hashlib.sha256(result.transcript_bytes()).hexdigest())
"""


@pytest.fixture(scope="module")
def digests_by_hash_seed() -> dict[str, dict[tuple[str, str], str]]:
    """One interpreter per hash seed, each replaying every pair."""
    pairs = [f"{drive}:{scenario}" for scenario, drive in (p.values for p in DRIVE_PAIRS)]
    path = os.pathsep.join(
        filter(None, [str(_ROOT / "src"), str(_ROOT), os.environ.get("PYTHONPATH")])
    )
    children = {
        seed: subprocess.Popen(
            [sys.executable, "-c", _REPLAY, *pairs],
            cwd=_ROOT,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in HASH_SEEDS
    }
    digests: dict[str, dict[tuple[str, str], str]] = {}
    try:
        for seed, child in children.items():
            out, err = child.communicate(timeout=600)
            assert child.returncode == 0, f"PYTHONHASHSEED={seed} replay failed:\n{err}"
            digests[seed] = {
                (scenario, drive): digest
                for drive, scenario, digest in (line.split() for line in out.splitlines())
            }
    finally:
        for child in children.values():
            if child.poll() is None:
                child.kill()
                child.communicate()
    return digests


@pytest.mark.parametrize("scenario, drive", DRIVE_PAIRS)
def test_every_hash_seed_replays_the_golden_transcript(scenario, drive, digests_by_hash_seed):
    golden = GOLDEN_DIGESTS[scenario][drive]
    for seed in HASH_SEEDS:
        assert digests_by_hash_seed[seed][(scenario, drive)] == golden, (
            f"{scenario}/{drive} under PYTHONHASHSEED={seed} diverged from its golden digest"
        )
