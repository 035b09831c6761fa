"""City-scale style simulation: all methods, all cost metrics, one report.

Builds a larger synthetic city (several hundred subscribers, two days of 30-minute
intervals), then runs the naive, local-only, plain-BF and WBF protocols over the
simulated distributed environment and prints an evaluation report in the style of
the paper's Section V (precision/recall plus communication, storage and time
relative to the naive method).  ``run_comparison`` drives every method through
the same ``repro.cluster.Cluster`` engine the facade exposes.

Run with:  python examples/city_scale_simulation.py
(set REPRO_EXAMPLE_SCALE=tiny for the CI smoke scale)
"""

from __future__ import annotations

import os

from repro import DatasetSpec, DIMatchingConfig, build_dataset, wire
from repro.datagen.workload import build_query_workload
from repro.evaluation import run_comparison
from repro.utils.asciiplot import render_table

TINY = os.environ.get("REPRO_EXAMPLE_SCALE") == "tiny"


def main() -> None:
    dataset = build_dataset(
        DatasetSpec(
            users_per_category=6 if TINY else 80,
            station_count=3 if TINY else 8,
            days=1 if TINY else 2,
            intervals_per_day=24 if TINY else 48,
            noise_level=0,
            cliques_per_place=3,
            replicated_decoys_per_category=3,
            seed=2024,
        )
    )
    print(f"synthetic city: {dataset}")
    raw_bytes = sum(
        wire.encoded_size(list(dataset.local_patterns_at(station_id)))
        for station_id in dataset.station_ids
    )
    print(f"raw data volume at stations: {raw_bytes / 1024:.0f} KiB")

    workload = build_query_workload(
        dataset, query_count=4 if TINY else 18, epsilon=0, seed=3
    )
    config = DIMatchingConfig(epsilon=0, sample_count=12, hash_count=4)

    result = run_comparison(
        dataset, workload, config, methods=("naive", "local", "bf", "wbf")
    )
    print(
        f"\nquery batch: {result.query_count} patterns "
        f"({result.combined_pattern_count} combined patterns), "
        f"{len(result.ground_truth)} truly similar subscribers\n"
    )

    rows = []
    for method in ("naive", "local", "bf", "wbf"):
        outcome = result.outcome(method)
        relative = result.relative_costs(method)
        rows.append(
            [
                method,
                round(outcome.metrics.precision, 3),
                round(outcome.metrics.recall, 3),
                round(outcome.metrics.f1, 3),
                f"{outcome.costs.communication_bytes / 1024:.1f}",
                round(relative["communication"], 3),
                round(relative["storage"], 3),
                f"{outcome.costs.total_time_s * 1000:.0f}",
            ]
        )
    print(
        render_table(
            [
                "method",
                "precision",
                "recall",
                "F1",
                "comm KiB",
                "comm vs naive",
                "storage vs naive",
                "time ms",
            ],
            rows,
        )
    )
    print(
        "\nExpected shape: naive and WBF precision ≈ 1.0, local-only misses split "
        "users, plain BF admits structural false positives; WBF moves a small "
        "fraction of the naive method's bytes."
    )


if __name__ == "__main__":
    main()
