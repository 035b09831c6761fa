"""Hierarchy benchmark: center-ingress bytes, flat star vs two-tier, at 10k stations.

The regional tier exists to shrink one quantity: the bytes that terminate at
the data center's uplink ingress.  In the flat star every station report
crosses that ingress; behind a two-tier topology each regional aggregator
unions its stations' ``MATCH_REPORT``s into one deduplicated, re-encoded
summary, so the trunk carries one frame per region instead of one per
station.  This benchmark drives the *same* WBF round over the 100x-scale
directly-constructed city (:mod:`repro.datagen.scale`, 10,000 stations)
through both layouts and persists ``BENCH_hierarchy.json``:

* the rankings must be identical — the hierarchy is a routing change, never a
  results change (asserted element-for-element, then pinned by digest);
* ``ingress.ratio`` (flat ingress / two-tier ingress, > 1) is the headline
  metric the perf-trajectory gate tracks, alongside both absolute byte
  counts.

Everything recorded is deterministic under the seed; wall-clock timings are
informational only and never gated.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_hierarchy.py
"""

import hashlib

from conftest import write_json_result, write_report

from repro.cluster import Cluster, ClusterSpec, ProtocolSpec
from repro.core.config import DIMatchingConfig
from repro.datagen.scale import build_scale_dataset, build_scale_queries
from repro.topology import TopologySpec
from repro.wire import WIRE_VERSION

STATION_COUNT = 10_000
#: 100 stations behind each aggregator — the trunk fan-in drops 100x.
REGION_COUNT = 100
QUERY_COUNT = 16
SEED = 2013


def _spec(topology: "TopologySpec | None") -> ClusterSpec:
    return ClusterSpec(
        name="hierarchy-bench",
        protocol=ProtocolSpec(
            method="wbf",
            config=DIMatchingConfig(epsilon=0, sample_count=8, hash_count=4),
        ),
        topology=topology,
    )


def _run_round(dataset, queries, topology):
    with Cluster(_spec(topology), dataset=dataset) as cluster:
        cluster.subscribe(queries)
        return cluster.round(k=None)


def _ranking(report) -> list[tuple[str, float]]:
    return [(entry.user_id, entry.score) for entry in report.results]


def _ranked_digest(report) -> str:
    lines = "\n".join(f"{user_id}:{score!r}" for user_id, score in _ranking(report))
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def test_two_tier_cuts_center_ingress_at_10k_stations(benchmark):
    dataset = build_scale_dataset(
        station_count=STATION_COUNT, users_per_station=1, seed=SEED
    )
    queries = build_scale_queries(dataset, QUERY_COUNT, seed=SEED)
    two_tier = TopologySpec(kind="two-tier", regions=REGION_COUNT)

    flat = _run_round(dataset, queries, None)
    tiered = benchmark.pedantic(
        lambda: _run_round(dataset, queries, two_tier), rounds=1, iterations=1
    )

    # Routing change, not a results change: rankings match element for element.
    assert _ranking(tiered) == _ranking(flat)

    # The flat star has no tier ledger; the two-tier round charges the trunk
    # hop plus one regional hop per aggregator, all in tier-map order.
    assert flat.costs.tiers == ()
    assert [tier.tier for tier in tiered.costs.tiers] == ["trunk"] + [
        f"region-{index}" for index in range(REGION_COUNT)
    ]

    flat_ingress = flat.costs.center_ingress_bytes
    tiered_ingress = tiered.costs.center_ingress_bytes
    assert flat_ingress == flat.costs.uplink_bytes
    assert tiered_ingress < flat_ingress
    ratio = flat_ingress / tiered_ingress

    # Deterministic under the seed: a fresh deployment replays the same round.
    assert _ranked_digest(_run_round(dataset, queries, two_tier)) == _ranked_digest(
        tiered
    )

    trunk = tiered.costs.tiers[0]
    payload = {
        "station_count": STATION_COUNT,
        "region_count": REGION_COUNT,
        "query_count": QUERY_COUNT,
        "ingress": {
            "flat_bytes": flat_ingress,
            "two_tier_bytes": tiered_ingress,
            "ratio": round(ratio, 4),
        },
        "trunk": {
            "uplink_bytes": trunk.uplink_bytes,
            "message_count": trunk.message_count,
            "wire_version": WIRE_VERSION,
        },
        "regional_uplink_bytes": sum(
            tier.uplink_bytes for tier in tiered.costs.tiers[1:]
        ),
        "ranked_count": len(tiered.results),
        "ranked_digest": _ranked_digest(tiered),
    }
    write_json_result("hierarchy", payload)
    write_report(
        "hierarchy",
        "Center ingress, flat star vs two-tier, one WBF round over "
        f"{STATION_COUNT} stations / {REGION_COUNT} regions\n"
        f"  flat ingress={flat_ingress}B  two-tier ingress={tiered_ingress}B "
        f"(ratio {ratio:.2f}x)\n"
        f"  trunk messages={trunk.message_count} "
        f"regional uplink={payload['regional_uplink_bytes']}B",
    )
