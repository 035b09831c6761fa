"""Figure 4 at 100x scale: one WBF round over 10,000 base stations.

The paper's Figure 4 runs at city scale (their 3.6 M users over thousands of
cells); our regular Figure-4 tier uses a 6-station synthetic city.  This tier
drives the *same protocol round* over a 10,000-station directly-constructed
dataset (:mod:`repro.datagen.scale`) — 100x the regular tier's pattern count —
and pins down two things:

* the deterministic round outcome (byte counts, report count, ranking and
  transcript digests), which the perf-trajectory gate tracks and the parity
  suites hold byte-identical across bit backends and executors;
* the hot-path speedup: the same round is re-run with the optimization
  switches off (payload-decode memoization, WBF mask probing) and must come
  out at least 3x slower — locking in that round cost scales with deltas, not
  cluster size.

Wall-clock numbers are recorded in the JSON as informational context only;
the gate never tracks them.
"""

import hashlib
import time

from conftest import write_json_result, write_report

import repro.wire.codec as codec
from repro.cluster import Cluster
from repro.core.config import DIMatchingConfig
from repro.core.dimatching import DIMatchingProtocol
from repro.core.wbf import WeightedBloomFilter
from repro.datagen.scale import build_scale_dataset, build_scale_queries
from repro.distributed.events import transcript_to_bytes

STATION_COUNT = 10_000
QUERY_COUNT = 16
SEED = 2012

#: The committed acceptance bar: optimized round cost at 10k stations must be
#: at least this many times cheaper than the switched-off path.
MIN_SPEEDUP = 3.0


def _ranked_digest(results) -> str:
    lines = "\n".join(f"{entry.user_id}:{entry.score!r}" for entry in results.users)
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def _transcript_digest(transcript) -> str:
    return hashlib.sha256(transcript_to_bytes(transcript)).hexdigest()


def _drive(cluster, protocol, queries):
    start = time.perf_counter()
    outcome = cluster.drive(protocol, queries, k=None)
    return time.perf_counter() - start, outcome


def test_figure_4_100x_scale(benchmark):
    dataset = build_scale_dataset(
        station_count=STATION_COUNT, users_per_station=1, seed=SEED
    )
    queries = build_scale_queries(dataset, QUERY_COUNT, seed=SEED)
    cluster = Cluster.adopt(dataset)
    protocol = DIMatchingProtocol(DIMatchingConfig(epsilon=0, sample_count=8, hash_count=4))

    optimized_s, outcome = benchmark.pedantic(
        lambda: _drive(cluster, protocol, queries), rounds=1, iterations=1
    )

    # Same round with every hot-path switch off; results must be identical
    # and the optimized run must clear the committed speedup bar.
    codec.PAYLOAD_DECODE_CACHE_ENABLED = False
    WeightedBloomFilter.MASK_INDEX_ENABLED = False
    codec.clear_payload_decode_cache()
    try:
        unoptimized_s, reference = _drive(cluster, protocol, queries)
    finally:
        codec.PAYLOAD_DECODE_CACHE_ENABLED = True
        WeightedBloomFilter.MASK_INDEX_ENABLED = True

    assert reference.results == outcome.results
    assert reference.costs.downlink_bytes == outcome.costs.downlink_bytes
    assert reference.costs.uplink_bytes == outcome.costs.uplink_bytes
    assert _transcript_digest(reference.transcript) == _transcript_digest(
        outcome.transcript
    )

    speedup = unoptimized_s / optimized_s
    payload = {
        "station_count": STATION_COUNT,
        "user_count": dataset.user_count,
        "query_count": QUERY_COUNT,
        "round": {
            "downlink_bytes": outcome.costs.downlink_bytes,
            "uplink_bytes": outcome.costs.uplink_bytes,
            "report_count": outcome.costs.report_count,
            "ranked_count": len(outcome.results),
            "ranked_digest": _ranked_digest(outcome.results),
            "transcript_digest": _transcript_digest(outcome.transcript),
        },
        # Informational wall-clock context; the trajectory gate ignores it.
        "speedup": {
            "optimized_s": round(optimized_s, 3),
            "unoptimized_s": round(unoptimized_s, 3),
            "speedup": round(speedup, 2),
            "min_required": MIN_SPEEDUP,
        },
    }
    write_report(
        "fig4_100x",
        "Figure 4 at 100x scale: one WBF round over "
        f"{STATION_COUNT} stations / {dataset.user_count} users\n"
        f"  downlink={outcome.costs.downlink_bytes}B "
        f"uplink={outcome.costs.uplink_bytes}B "
        f"reports={outcome.costs.report_count}\n"
        f"  optimized={optimized_s:.2f}s unoptimized={unoptimized_s:.2f}s "
        f"speedup={speedup:.1f}x (bar: {MIN_SPEEDUP}x)",
    )
    write_json_result("fig4_100x", payload)

    assert outcome.costs.report_count > 0
    assert speedup >= MIN_SPEEDUP