"""``repro.cluster`` — the one typed, handle-based API for the whole system.

Stand up a deployment from a validated :class:`ClusterSpec`, then drive it
through the :class:`Cluster` facade's verbs::

    from repro.cluster import Cluster, ClusterSpec, ProtocolSpec, RoundOptions
    from repro.datagen.workload import DatasetSpec

    spec = ClusterSpec(
        name="demo",
        dataset=DatasetSpec(users_per_category=5, station_count=4),
        protocol=ProtocolSpec(method="wbf", epsilon=0),
    )
    with Cluster(spec) as cluster:
        cluster.subscribe(queries)
        report = cluster.round(RoundOptions(k=10))

Every round enters through this surface: the method-comparison harness
(``Cluster.adopt(...).drive(...)``), the workload engine's drive modes and
both CLI drive paths.  Deployment knobs (fault profile, net seed) are set on
:class:`FaultSpec` or ``Cluster.adopt`` and nowhere else; see ``docs/api.md``
for the verb table and migration notes.
"""

from repro.cluster.facade import (
    Cluster,
    ClusterSession,
    ClusterStateError,
    SESSION_MODES,
)
from repro.cluster.report import ClusterSnapshot, RoundReport
from repro.cluster.spec import (
    ClusterSpec,
    ExecutorSpec,
    FaultSpec,
    PROTOCOL_METHODS,
    ProtocolSpec,
    TransportSpec,
)
from repro.distributed.simulator import RoundOptions

__all__ = [
    "Cluster",
    "ClusterSession",
    "ClusterSnapshot",
    "ClusterSpec",
    "ClusterStateError",
    "ExecutorSpec",
    "FaultSpec",
    "PROTOCOL_METHODS",
    "ProtocolSpec",
    "RoundOptions",
    "RoundReport",
    "SESSION_MODES",
    "TransportSpec",
]
