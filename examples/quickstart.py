"""Quickstart: stand up a cluster, subscribe a query batch, run one round.

The ``repro.cluster.Cluster`` facade is the one public entry point to the
distributed matching system: a validated :class:`ClusterSpec` describes the
deployment (synthetic city, protocol, transport, faults), and the
facade's verbs drive it — ``subscribe()`` registers the query batch,
``round()`` executes one full wire round and returns a typed report.

Run with:  python examples/quickstart.py
(set REPRO_EXAMPLE_SCALE=tiny for the CI smoke scale)
"""

from __future__ import annotations

import os

from repro import (
    Cluster,
    ClusterSpec,
    DatasetSpec,
    DIMatchingConfig,
    ProtocolSpec,
    RoundOptions,
    build_query_workload,
)
from repro.evaluation import evaluate_retrieval, ground_truth_users

TINY = os.environ.get("REPRO_EXAMPLE_SCALE") == "tiny"


def main() -> None:
    # 1. Describe the deployment: six occupation categories, four base
    #    stations, one day of hourly communication patterns per user — and the
    #    WBF protocol of the paper, all validated before anything runs.
    spec = ClusterSpec(
        name="quickstart",
        dataset=DatasetSpec(
            users_per_category=4 if TINY else 12,
            station_count=3 if TINY else 4,
            days=1,
            noise_level=0,
            seed=1,
        ),
        protocol=ProtocolSpec(
            method="wbf",
            config=DIMatchingConfig(epsilon=0, sample_count=12, hash_count=4),
        ),
    )

    with Cluster(spec) as cluster:
        print(f"cluster: {cluster}")
        print(f"stations: {', '.join(cluster.station_ids)}")

        # 2. A service provider supplies three "preferred customer" patterns
        #    as queries (each query = that customer's per-station fragments).
        workload = build_query_workload(cluster.dataset, query_count=3, epsilon=0)
        for query in workload.queries:
            print(
                f"query {query.query_id}: {query.station_count} local fragments, "
                f"global total {query.global_pattern.total}"
            )

        # 3. Subscribe the batch and run one full wire round: encode the
        #    queries into one Weighted Bloom Filter, broadcast it, match at
        #    every base station, aggregate the (id, weight) reports.
        cluster.subscribe(list(workload.queries))
        report = cluster.round(RoundOptions(net_seed=0))

        print(f"\nretrieved {len(report.results)} candidate users (top 10 shown):")
        for entry in list(report.results)[:10]:
            category = cluster.dataset.category_of(entry.user_id)
            print(f"  {entry.user_id:<28} score={entry.score:.3f}  category={category}")
        print(
            f"round moved {report.total_bytes} wire bytes "
            f"(downlink {report.downlink_bytes}, uplink {report.uplink_bytes}) "
            f"in {report.latency_s * 1000:.1f} ms of simulated transmission"
        )

        # 4. Compare against the exact ground truth (users whose *global*
        #    pattern is ε-similar to some query).
        truth = ground_truth_users(cluster.dataset, list(workload.queries), 0)
        complete_matches = [
            entry.user_id for entry in report.results if entry.score == 1.0
        ]
        metrics = evaluate_retrieval(complete_matches, truth)
        print(
            f"\nground truth: {len(truth)} users; complete matches: {len(complete_matches)}; "
            f"precision={metrics.precision:.3f} recall={metrics.recall:.3f} f1={metrics.f1:.3f}"
        )


if __name__ == "__main__":
    main()
