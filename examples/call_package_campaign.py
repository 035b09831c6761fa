"""The paper's motivating scenario: targeting a call-package campaign.

A mobile operator wants to promote a call package to customers whose communication
pattern resembles a small set of existing, satisfied customers.  The exemplar
customers' data is split across base stations; the operator deploys DI-matching
behind the ``repro.cluster.Cluster`` facade to find the top-K most similar
subscribers without hauling every station's raw data to the data center — and
compares the same deployment against the naive ship-everything method by
swapping only the spec's protocol sub-spec.

Run with:  python examples/call_package_campaign.py
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
    TransportSpec,
    build_dataset,
)
from repro.datagen.workload import build_query_workload
from repro.evaluation import evaluate_retrieval, ground_truth_users

TINY = os.environ.get("REPRO_EXAMPLE_SCALE") == "tiny"


def main() -> None:
    # A mid-sized district: ~200 subscribers spread over six cells, two days of data
    # at 30-minute granularity, with natural person-to-person timing jitter.
    dataset = build_dataset(
        DatasetSpec(
            users_per_category=5 if TINY else 30,
            station_count=3 if TINY else 6,
            days=1 if TINY else 2,
            intervals_per_day=24 if TINY else 48,
            noise_level=1,
            seed=77,
        )
    )
    print(f"district dataset: {dataset}")

    # The campaign team picks exemplar customers from two profiles it wants to reach:
    # heavy daytime users (field sales) and evening-heavy users (students).
    workload = build_query_workload(
        dataset,
        query_count=4,
        epsilon=2,
        categories=["field_sales", "student"],
        seed=5,
    )
    queries = list(workload.queries)
    truth = ground_truth_users(dataset, queries, workload.epsilon)
    print(f"campaign exemplars: {len(queries)}; truly similar subscribers: {len(truth)}")

    # One deployment spec over a bandwidth-limited backhaul; the method is just
    # the protocol sub-spec, so WBF vs naive is a one-field change.
    spec = ClusterSpec(
        name="call-package",
        protocol=ProtocolSpec(method="wbf", config=DIMatchingConfig(epsilon=2, sample_count=12)),
        transport=TransportSpec(bandwidth_bytes_per_s=1_000_000, latency_s=0.02),
    )
    outcomes = {}
    for method in ("wbf", "naive"):
        method_spec = spec.with_updates(
            protocol=ProtocolSpec(method=method, config=spec.protocol.config)
        )
        with Cluster(method_spec, dataset=dataset) as cluster:
            cluster.subscribe(queries)
            outcomes[method] = cluster.round(RoundOptions(k=len(truth)))

    for method, report in outcomes.items():
        metrics = evaluate_retrieval(report.retrieved_user_ids, truth)
        costs = report.costs
        print(
            f"\n[{method}] precision={metrics.precision:.3f} "
            f"recall={metrics.recall:.3f}"
        )
        print(
            f"  communication: {costs.communication_bytes / 1024:.1f} KiB "
            f"(downlink {costs.downlink_bytes / 1024:.1f}, uplink {costs.uplink_bytes / 1024:.1f})"
        )
        print(
            f"  time: {costs.total_time_s * 1000:.0f} ms "
            f"(computation {costs.computation_time_s * 1000:.0f} ms, "
            f"transmission {costs.transmission_time_s * 1000:.0f} ms)"
        )

    saving = 1 - (
        outcomes["wbf"].costs.communication_bytes
        / outcomes["naive"].costs.communication_bytes
    )
    print(f"\nDI-matching moved {saving:.0%} fewer bytes than shipping the raw data.")

    print("\ntop recommended subscribers for the campaign:")
    for entry in outcomes["wbf"].results.top(10):
        print(
            f"  {entry.user_id:<28} score={entry.score:.3f} "
            f"category={dataset.category_of(entry.user_id)}"
        )


if __name__ == "__main__":
    main()
