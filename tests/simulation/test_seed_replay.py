"""Seed-replay determinism: the acceptance criterion of the simulation harness.

Identical ``(dataset seed, net seed, profile)`` triples must produce
byte-identical event transcripts and identical match results across repeated
runs, and different seeds must actually explore different schedules.  This is
what makes any simulated failure reproducible from three integers.
"""

import pytest

from repro.distributed.events import transcript_to_bytes

from .conftest import run_round

REPLAY_TRIPLES = [
    (31, 0, "none"),
    (31, 7, "lossy"),
    (31, 7, "corrupting"),
    (31, 3, "reordering"),
    (31, 11, "chaos"),
    (77, 5, "duplicating"),
]


@pytest.mark.parametrize(
    "dataset_seed,net_seed,profile",
    REPLAY_TRIPLES,
    ids=[f"ds{d}-net{n}-{p}" for d, n, p in REPLAY_TRIPLES],
)
class TestSeedReplay:
    def test_two_runs_produce_byte_identical_transcripts_and_results(
        self, dataset_seed, net_seed, profile
    ):
        first = run_round(dataset_seed, net_seed, profile)
        second = run_round(dataset_seed, net_seed, profile)
        assert first.transcript_bytes() == second.transcript_bytes()
        assert first.results == second.results
        assert first.costs.communication_bytes == second.costs.communication_bytes
        assert first.costs.transmission_time_s == second.costs.transmission_time_s
        assert first.costs.retransmit_count == second.costs.retransmit_count


def test_different_net_seeds_explore_different_schedules():
    transcripts = {
        run_round(31, net_seed, "chaos").transcript_bytes() for net_seed in range(6)
    }
    # Six seeds, at least two distinct fault schedules (in practice all six).
    assert len(transcripts) > 1


def test_transcript_bytes_round_trip_from_entries(reference_outcome):
    assert (
        transcript_to_bytes(reference_outcome.transcript)
        == reference_outcome.transcript_bytes()
    )
    # Sequence numbers are dense and ordered: the transcript is a total order.
    sequences = [entry.sequence for entry in reference_outcome.transcript]
    assert sequences == list(range(len(sequences)))
