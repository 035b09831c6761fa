"""repro — reproduction of "Distributed Incomplete Pattern Matching via a Novel
Weighted Bloom Filter" (Liu, Kang, Chen, Ni; ICDCS 2012).

The package implements the paper's DI-matching framework end to end: the Weighted
Bloom Filter, the data-center encoder / base-station matcher / similarity ranker
(Algorithms 1-3), the baseline methods it is compared against, a synthetic
city-scale mobile-network data substrate, a simulated distributed environment with
communication/storage/time accounting, and the evaluation harness that regenerates
every table and figure of the paper.

Quickstart
----------

The typed ``repro.cluster`` facade is the one public entry point (see
``docs/api.md`` for the full verb table):

>>> from repro import Cluster, ClusterSpec, DatasetSpec, ProtocolSpec, build_query_workload
>>> spec = ClusterSpec(
...     name="quickstart",
...     dataset=DatasetSpec(users_per_category=5, station_count=4),
...     protocol=ProtocolSpec(method="wbf", epsilon=0),
... )
>>> with Cluster(spec) as cluster:
...     workload = build_query_workload(cluster.dataset, query_count=3, epsilon=0)
...     cluster.subscribe(list(workload.queries))
...     report = cluster.round()
>>> len(report.results) > 0
True
"""

from repro.core import (
    BaseStationMatcher,
    DIMatchingConfig,
    DIMatchingProtocol,
    EncodedQueryBatch,
    MatchingProtocol,
    MatchReport,
    PatternEncoder,
    QueryPattern,
    RankedResults,
    RankedUser,
    SimilarityRanker,
    WeightedBloomFilter,
    run_dimatching,
)
from repro.baselines import BloomFilterProtocol, LocalOnlyProtocol, NaiveProtocol
from repro.bloom import BloomFilter
from repro.timeseries import GlobalPattern, LocalPattern, Pattern

try:
    # The synthetic-data, simulation and evaluation layers require NumPy; the
    # matching core and Bloom substrate above do not (the bit backend falls back
    # to its pure-Python implementation, see repro.bloom.backend).
    from repro.datagen import (
        DatasetSpec,
        DatasetStationSource,
        DistributedDataset,
        QueryWorkload,
        SourceSpec,
        StationSource,
        StationSourceBase,
        StreamingStationSource,
        build_dataset,
        build_ground_truth_cohort,
        build_query_workload,
    )
    from repro.cluster import (
        Cluster,
        ClusterSession,
        ClusterSnapshot,
        ClusterSpec,
        ClusterStateError,
        ExecutorSpec,
        FaultSpec,
        ProtocolSpec,
        RoundOptions,
        RoundReport,
        TransportSpec,
    )
    from repro.distributed import NetworkConfig, SimulationOutcome
    from repro.evaluation import (
        effectiveness_study,
        evaluate_retrieval,
        run_comparison,
        sweep_query_counts,
    )
    from repro.workloads import (
        SCENARIOS,
        WorkloadResult,
        WorkloadSpec,
        get_scenario,
        run_workload,
        scenario_names,
    )

    HAS_DATAGEN = True
except ImportError as _error:  # pragma: no cover - covered by the no-NumPy CI leg
    if (_error.name or "").partition(".")[0] != "numpy":
        # A genuine import failure inside the optional layers — surface it
        # rather than masking it as "NumPy is not installed".
        raise
    HAS_DATAGEN = False

__version__ = "1.0.0"

__all__ = [
    "BaseStationMatcher",
    "DIMatchingConfig",
    "DIMatchingProtocol",
    "EncodedQueryBatch",
    "MatchingProtocol",
    "MatchReport",
    "PatternEncoder",
    "QueryPattern",
    "RankedResults",
    "RankedUser",
    "SimilarityRanker",
    "WeightedBloomFilter",
    "run_dimatching",
    "BloomFilterProtocol",
    "LocalOnlyProtocol",
    "NaiveProtocol",
    "BloomFilter",
    "GlobalPattern",
    "LocalPattern",
    "Pattern",
    "HAS_DATAGEN",
    "__version__",
]

if HAS_DATAGEN:
    __all__ += [
        "Cluster",
        "ClusterSession",
        "ClusterSnapshot",
        "ClusterSpec",
        "ClusterStateError",
        "ExecutorSpec",
        "FaultSpec",
        "ProtocolSpec",
        "RoundOptions",
        "RoundReport",
        "TransportSpec",
        "DatasetSpec",
        "DatasetStationSource",
        "DistributedDataset",
        "QueryWorkload",
        "SourceSpec",
        "StationSource",
        "StationSourceBase",
        "StreamingStationSource",
        "build_dataset",
        "build_ground_truth_cohort",
        "build_query_workload",
        "NetworkConfig",
        "SimulationOutcome",
        "effectiveness_study",
        "evaluate_retrieval",
        "run_comparison",
        "sweep_query_counts",
        "SCENARIOS",
        "WorkloadResult",
        "WorkloadSpec",
        "get_scenario",
        "run_workload",
        "scenario_names",
    ]
