"""Online monitoring: keep a top-K answer fresh as station data evolves.

The paper's running example asks for near-real-time feedback: communication
data keep arriving at base stations and the service provider wants the current
top-K without recomputing everything.  A delta session of the
``repro.cluster.Cluster`` facade (``open_session(mode="deltas")``) encodes the
query batch once, re-matches only the stations whose data changed, and ships
only their report deltas through the simulated transport on every ``step()``.

Run with:  python examples/online_monitoring.py
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
)
from repro.datagen.workload import build_query_workload

TINY = os.environ.get("REPRO_EXAMPLE_SCALE") == "tiny"


def main() -> None:
    spec = ClusterSpec(
        name="online-monitoring",
        dataset=DatasetSpec(
            users_per_category=4 if TINY else 10,
            station_count=3 if TINY else 5,
            noise_level=0,
            seed=13,
        ),
        protocol=ProtocolSpec(
            method="wbf",
            config=DIMatchingConfig(epsilon=0, sample_count=12),
        ),
    )
    with Cluster(spec) as cluster:
        workload = build_query_workload(cluster.dataset, query_count=3, epsilon=0)

        session = cluster.open_session(mode="deltas")
        session.subscribe(list(workload.queries))
        print(f"session: {session}")

        # Stations come online one after another (e.g. their monthly upload
        # window); each step ships only what changed since the last one.
        for round_index, station_id in enumerate(cluster.station_ids, start=1):
            report_count = session.publish(
                station_id, cluster.dataset.local_patterns_at(station_id)
            )
            report = session.step(RoundOptions(net_seed=round_index, k=5))
            complete = sum(1 for entry in report.results if entry.score == 1.0)
            print(
                f"round {round_index}: station {station_id} published "
                f"{report_count:3d} patterns, shipped "
                f"{len(report.delivered_station_ids)} delta(s) "
                f"({report.uplink_bytes} B up) -> {complete} complete matches "
                f"in the current top-5"
            )

        print("\nfinal top-5 after all stations reported:")
        final = session.step(RoundOptions(net_seed=0, k=5))
        for entry in final.results:
            print(f"  {entry.user_id:<28} score={entry.score:.3f}")

        # A data correction arrives at one station: only that station is
        # re-matched and only its delta crosses the wire.
        first_station = cluster.station_ids[0]
        session.publish(
            first_station, cluster.dataset.local_patterns_at(first_station)
        )
        correction = session.step(RoundOptions(net_seed=99, k=5))
        print(
            f"\nafter a correction at {first_station}: "
            f"re-shipped {len(correction.delivered_station_ids)} station "
            f"({correction.uplink_bytes} B) — the other "
            f"{len(cluster.station_ids) - 1} stations stayed untouched"
        )


if __name__ == "__main__":
    main()
