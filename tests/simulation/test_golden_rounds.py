"""Every fault profile's round transcript, pinned byte for byte.

The seed-replay tests compare a run only with itself, so an engine whose
event order changed *deterministically* would still pass them.
``golden_round_transcripts.json`` closes that gap: it holds the sha256 of
``transcript_bytes()`` of :func:`run_round` for every named fault profile,
three net seeds and both ``allow_partial`` settings, captured from the
simulated transport before its per-frame fast paths (one heap event per
intact frame, a shared fault-free decision) existed.  Update the digests
deliberately, never to paper over drift: rerun, inspect the transcript diff,
and re-dump them.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.distributed.faults import FAULT_PROFILES

from .conftest import run_round

DATASET_SEED = 11
NET_SEEDS = (1, 7, 2024)

GOLDEN_DIGESTS = json.loads(
    (Path(__file__).parent / "golden_round_transcripts.json").read_text(encoding="utf-8")
)

CASES = [
    (profile, net_seed, allow_partial)
    for profile in sorted(FAULT_PROFILES)
    for net_seed in NET_SEEDS
    for allow_partial in (False, True)
]


def _case_id(profile: str, net_seed: int, allow_partial: bool) -> str:
    return f"{profile}/net{net_seed}/{'partial' if allow_partial else 'strict'}"


@pytest.mark.parametrize(
    "profile,net_seed,allow_partial", CASES, ids=[_case_id(*case) for case in CASES]
)
def test_round_transcript_matches_its_golden_digest(profile, net_seed, allow_partial):
    outcome = run_round(DATASET_SEED, net_seed, profile, allow_partial=allow_partial)
    digest = hashlib.sha256(outcome.transcript_bytes()).hexdigest()
    assert digest == GOLDEN_DIGESTS[_case_id(profile, net_seed, allow_partial)]


def test_golden_file_covers_exactly_the_grid():
    assert set(GOLDEN_DIGESTS) == {_case_id(*case) for case in CASES}
