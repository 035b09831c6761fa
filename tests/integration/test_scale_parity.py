"""Byte-identity of a 10,000-station round across executors.

The hot-path work (payload-decode memoization, mask-index probing,
shared-memory artifact handoff) is only admissible because the round outcome
is *byte-identical* with every switch in every combination.
This suite pins that at the 100x-scale tier the benchmarks track: the same
directly-constructed 10k-station dataset, driven once per configuration, must
produce identical ranked results, identical real byte counts and identical
transcript bytes.
"""

import hashlib

import pytest

from repro.cluster import Cluster
from repro.core.config import DIMatchingConfig
from repro.core.dimatching import DIMatchingProtocol
from repro.datagen.scale import build_scale_dataset, build_scale_queries
from repro.distributed.events import transcript_to_bytes

STATION_COUNT = 10_000
QUERY_COUNT = 6
SEED = 2012


def _digests(outcome) -> dict[str, object]:
    ranked = "\n".join(
        f"{entry.user_id}:{entry.score!r}" for entry in outcome.results.users
    )
    return {
        "ranked": hashlib.sha256(ranked.encode("utf-8")).hexdigest(),
        "transcript": hashlib.sha256(
            transcript_to_bytes(outcome.transcript)
        ).hexdigest(),
        "downlink": outcome.costs.downlink_bytes,
        "uplink": outcome.costs.uplink_bytes,
        "reports": outcome.costs.report_count,
    }


@pytest.fixture(scope="module")
def scale_inputs():
    dataset = build_scale_dataset(
        station_count=STATION_COUNT, users_per_station=1, seed=SEED
    )
    return dataset, build_scale_queries(dataset, QUERY_COUNT, seed=SEED)


@pytest.fixture(scope="module")
def reference(scale_inputs):
    """Serial executor: the benchmarked baseline."""
    dataset, queries = scale_inputs
    protocol = DIMatchingProtocol(DIMatchingConfig(epsilon=0, sample_count=6, hash_count=4))
    with Cluster.adopt(dataset) as cluster:
        outcome = cluster.drive(protocol, queries, k=None)
    assert outcome.costs.report_count > 0
    return _digests(outcome)


@pytest.mark.slow
class TestScaleParity:
    def test_process_executor_matches_serial(self, scale_inputs, reference):
        dataset, queries = scale_inputs
        protocol = DIMatchingProtocol(DIMatchingConfig(epsilon=0, sample_count=6, hash_count=4))
        with Cluster.adopt(dataset, executor="process") as cluster:
            outcome = cluster.drive(protocol, queries, k=None)
        assert _digests(outcome) == reference
