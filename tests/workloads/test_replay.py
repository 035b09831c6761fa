"""The acceptance criterion: every scenario replays byte-identically.

``(scenario, seed)`` must fully determine the workload-level event
transcript — across repeated runs and across station executors — and
changing the seed must actually change the schedule.  This
extends the single-round seed-replay contract of ``tests/simulation/`` to
whole multi-round workloads.

``golden_transcripts.json`` pins the transcripts *across the facade
refactor*: its closed-drive digests were captured from the pre-``repro.cluster``
engine, so every scenario driven through ``Cluster``/``open_session()`` must
still produce the exact bytes the four-entry-point era produced.  Its
open-drive digests and every digest in ``golden_payloads.json`` (the
metrics rows: churn attribution, active-station counts, refresh flags, queue
delays, tenant tags) were captured at the parent of the change that folded
the engine's five per-mode drive loops into one, so that loop must reproduce
what the five produced.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.workloads import get_scenario, scenario_names

from .conftest import run_tiny, tiny_spec

ALL_SCENARIOS = scenario_names()

#: sha256 of each (scenario, drive) tiny-scale transcript and of its
#: ``json.dumps(to_payload(), sort_keys=True)``.  Update deliberately (never
#: to paper over drift): rerun the suite, inspect the diff, and re-dump the
#: digests.
_HERE = Path(__file__).parent
GOLDEN_DIGESTS = json.loads(
    (_HERE / "golden_transcripts.json").read_text(encoding="utf-8")
)
GOLDEN_PAYLOADS = json.loads((_HERE / "golden_payloads.json").read_text(encoding="utf-8"))

#: Every drive each scenario supports: both closed drives everywhere, the
#: open drive where the scenario declares an offered load.
DRIVE_PAIRS = [
    pytest.param(scenario, drive, id=f"{drive}-{scenario}")
    for drive in ("simulation", "session", "open")
    for scenario in ALL_SCENARIOS
    if drive != "open" or get_scenario(scenario).offered is not None
]


@pytest.mark.parametrize("scenario, drive", DRIVE_PAIRS)
def test_facade_drive_matches_the_pre_refactor_engine(scenario, drive):
    """Byte-identity of the transcript and the payload with the pinned engine."""
    result = run_tiny(scenario, drive=drive)
    digest = hashlib.sha256(result.transcript_bytes()).hexdigest()
    assert digest == GOLDEN_DIGESTS[scenario][drive], (
        f"{scenario}/{drive}: the facade-driven transcript no longer matches "
        "the pre-refactor engine's golden digest"
    )
    payload = json.dumps(result.to_payload(), sort_keys=True).encode("utf-8")
    assert hashlib.sha256(payload).hexdigest() == GOLDEN_PAYLOADS[scenario][drive], (
        f"{scenario}/{drive}: the payload's metrics rows no longer match the "
        "pinned engine's"
    )


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
class TestScenarioReplay:
    def test_two_runs_are_byte_identical(self, scenario):
        first = run_tiny(scenario)
        second = run_tiny(scenario)
        assert first.transcript_bytes() == second.transcript_bytes()
        # The persisted payload (everything except measured wall-clock) is
        # value-identical, not merely statistically close.
        assert first.to_payload() == second.to_payload()
        assert first.cumulative == second.cumulative

    def test_serial_and_thread_executors_share_one_transcript(self, scenario):
        serial = run_tiny(scenario, executor="serial")
        threaded = run_tiny(scenario, executor="thread")
        assert serial.transcript_bytes() == threaded.transcript_bytes()
        # Everything except measured wall-clock is executor-invariant.
        for left, right in zip(serial.rounds, threaded.rounds):
            assert left.total_bytes == right.total_bytes
            assert left.latency_s == right.latency_s
            assert left.precision == right.precision

    def test_session_drive_replays(self, scenario):
        first = run_tiny(scenario, drive="session")
        second = run_tiny(scenario, drive="session")
        assert first.transcript_bytes() == second.transcript_bytes()
        assert first.to_payload() == second.to_payload()


def test_different_seeds_explore_different_schedules():
    transcripts = {
        run_tiny("degraded-network").transcript_bytes(),
    }
    from repro.workloads import run_workload

    for seed in (1, 2, 3):
        spec = tiny_spec("degraded-network").with_updates(seed=seed)
        transcripts.add(run_workload(spec).transcript_bytes())
    assert len(transcripts) > 1


def test_transcript_concatenates_one_header_per_round(steady_result):
    replay = steady_result.transcript_bytes()
    for index in range(steady_result.round_count):
        assert (b"== round %d ==" % index) in replay
