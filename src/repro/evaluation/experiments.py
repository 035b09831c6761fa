"""Experiment runners reproducing the paper's evaluation (Section V).

Each public function corresponds to one experiment of the paper:

* :func:`run_comparison` / :func:`sweep_query_counts` — the accuracy and efficiency
  comparison of Naive vs BF vs WBF (Figure 4 a-d);
* :func:`convergence_study` — the sample-count (``b``) convergence study (Section V-B);
* :func:`effectiveness_study` — the ground-truth effectiveness evaluation (Table II).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.config import DIMatchingConfig
from repro.core.protocol import MatchingProtocol
from repro.datagen.ground_truth import PAPER_STUDY_DAYS, build_ground_truth_cohort
from repro.datagen.workload import (
    DatasetSpec,
    DistributedDataset,
    QueryWorkload,
    build_dataset,
    build_query_workload,
)
from repro.cluster.facade import Cluster
from repro.cluster.spec import PROTOCOL_METHODS, ProtocolSpec
from repro.distributed.faults import FaultPlan
from repro.distributed.metrics import CostReport
from repro.distributed.network import NetworkConfig
from repro.evaluation.metrics import RetrievalMetrics, evaluate_retrieval
from repro.timeseries.query import QueryPattern
from repro.utils.validation import require_non_empty, require_non_negative, require_positive

#: Methods compared in Figure 4, in plotting order.
DEFAULT_METHODS = ("naive", "bf", "wbf")


@dataclass(frozen=True)
class MethodOutcome:
    """Metrics and costs of one protocol on one query batch."""

    method: str
    metrics: RetrievalMetrics
    costs: CostReport
    retrieved: tuple[str, ...]


@dataclass(frozen=True)
class ComparisonResult:
    """All methods' outcomes for one query batch, plus the batch's ground truth."""

    query_count: int
    combined_pattern_count: int
    ground_truth: frozenset[str]
    outcomes: dict[str, MethodOutcome]

    def outcome(self, method: str) -> MethodOutcome:
        """The outcome of one method by name."""
        if method not in self.outcomes:
            raise KeyError(f"no outcome recorded for method {method!r}")
        return self.outcomes[method]

    def relative_costs(self, method: str, baseline: str = "naive") -> dict[str, float]:
        """Communication/storage/time of ``method`` relative to ``baseline``."""
        return self.outcome(method).costs.relative_to(self.outcome(baseline).costs)


@dataclass(frozen=True)
class EffectivenessRow:
    """One row of Table II."""

    day_label: str
    precision: float
    recall: float
    f1: float


def ground_truth_users(
    dataset: DistributedDataset, queries: Sequence[QueryPattern], epsilon: float
) -> frozenset[str]:
    """Users whose global pattern is ε-similar (Eq. 2) to at least one query."""
    require_non_empty(queries, "queries")
    relevant: set[str] = set()
    for query in queries:
        relevant |= dataset.similar_users(query.global_pattern, epsilon)
    return frozenset(relevant)


def make_protocols(
    config: DIMatchingConfig,
    methods: Sequence[str] = DEFAULT_METHODS,
) -> list[MatchingProtocol]:
    """Instantiate the protocols named in ``methods`` with a shared configuration.

    The baselines match with ``config.epsilon``, the tolerance the filters encode.

    The method-to-protocol mapping itself lives in
    :meth:`repro.cluster.spec.ProtocolSpec.build` — this helper only adds the
    shared-config, many-methods convenience the comparison harness wants.
    """
    require_non_empty(methods, "methods")
    protocols: list[MatchingProtocol] = []
    for method in methods:
        if method not in PROTOCOL_METHODS:
            raise ValueError(f"unknown method {method!r}; expected naive/local/bf/wbf")
        protocols.append(ProtocolSpec(method=method, config=config).build())
    return protocols


def _combined_pattern_count(config: DIMatchingConfig, queries: Sequence[QueryPattern]) -> int:
    """Number of combined (represented) patterns in a batch — the paper's ``a``."""
    from repro.core.encoder import PatternEncoder

    encoder = PatternEncoder(config)
    return sum(len(encoder.combined_patterns(query)) for query in queries)


def run_comparison(
    dataset: DistributedDataset,
    workload: QueryWorkload,
    config: DIMatchingConfig | None = None,
    methods: Sequence[str] = DEFAULT_METHODS,
    k: int | None = None,
    network_config: NetworkConfig | None = None,
    fault_plan: FaultPlan | str = "none",
    net_seed: int = 0,
    allow_partial: bool = False,
) -> ComparisonResult:
    """Run every requested method on one query batch and score it against ground truth.

    When ``k`` is None the cutoff is set to the ground-truth size, i.e. every method
    is asked for exactly as many users as are truly relevant (precision@|truth|).
    ``fault_plan`` / ``net_seed`` select the seeded transport faults every
    method's round is exposed to (a surviving round's results are
    fault-invariant — faults change costs, never answers).
    """
    config = config or DIMatchingConfig(epsilon=int(workload.epsilon))
    queries = list(workload.queries)
    truth = ground_truth_users(dataset, queries, workload.epsilon)
    cutoff = k if k is not None else len(truth)
    outcomes: dict[str, MethodOutcome] = {}
    # Every method's round runs through the same adopted cluster, so all
    # methods share one deployment: fault plan and net seed.
    with Cluster.adopt(
        dataset,
        network_config,
        fault_plan=fault_plan,
        net_seed=net_seed,
        allow_partial=allow_partial,
    ) as cluster:
        for protocol in make_protocols(config, methods):
            outcome = cluster.drive(protocol, queries, cutoff)
            retrieved = tuple(outcome.retrieved_user_ids)
            outcomes[protocol.name] = MethodOutcome(
                method=protocol.name,
                metrics=evaluate_retrieval(retrieved, truth),
                costs=outcome.costs,
                retrieved=retrieved,
            )
    return ComparisonResult(
        query_count=len(queries),
        combined_pattern_count=_combined_pattern_count(config, queries),
        ground_truth=truth,
        outcomes=outcomes,
    )


def sweep_query_counts(
    dataset: DistributedDataset,
    query_counts: Sequence[int],
    epsilon: float,
    config: DIMatchingConfig | None = None,
    methods: Sequence[str] = DEFAULT_METHODS,
    seed: int = 11,
    network_config: NetworkConfig | None = None,
    fault_plan: FaultPlan | str = "none",
    net_seed: int = 0,
    allow_partial: bool = False,
) -> list[ComparisonResult]:
    """Figure 4: run the method comparison for increasing numbers of query patterns."""
    require_non_empty(query_counts, "query_counts")
    results: list[ComparisonResult] = []
    for query_count in query_counts:
        require_positive(query_count, "query_count")
        workload = build_query_workload(dataset, query_count, epsilon, seed=seed)
        results.append(
            run_comparison(
                dataset,
                workload,
                config=config,
                methods=methods,
                network_config=network_config,
                fault_plan=fault_plan,
                net_seed=net_seed,
                allow_partial=allow_partial,
            )
        )
    return results


def convergence_study(
    sample_counts: Sequence[int],
    group_count: int = 4,
    users_per_category: int = 12,
    station_count: int = 6,
    query_count: int = 12,
    epsilon: int = 2,
    noise_level: int = 1,
    seed: int = 97,
) -> dict[str, dict[int, float]]:
    """Section V-B: pattern-matching accuracy as a function of the sample count ``b``.

    Four independent data groups (the paper uses four days of Data set 1) are built;
    for each group and each ``b`` the WBF precision is measured.  The paper finds the
    accuracy converges around ``b = 5`` and is stable by ``b = 12``.
    """
    require_non_empty(sample_counts, "sample_counts")
    require_positive(group_count, "group_count")
    results: dict[str, dict[int, float]] = {}
    for group_index in range(group_count):
        spec = DatasetSpec(
            users_per_category=users_per_category,
            station_count=station_count,
            noise_level=noise_level,
            seed=seed + group_index,
        )
        dataset = build_dataset(spec)
        workload = build_query_workload(
            dataset, query_count, epsilon, seed=seed + group_index
        )
        group_label = f"group-{group_index + 1}"
        results[group_label] = {}
        for sample_count in sample_counts:
            require_positive(sample_count, "sample_count")
            config = DIMatchingConfig(sample_count=sample_count, epsilon=epsilon)
            comparison = run_comparison(
                dataset, workload, config=config, methods=("wbf",)
            )
            results[group_label][sample_count] = comparison.outcome("wbf").metrics.precision
    return results


def effectiveness_study(
    day_count: int = 4,
    cohort_size: int = 310,
    queries_per_category: int = 2,
    epsilon: int = 2,
    noise_level: int = 1,
    sample_count: int = 12,
    seed: int = 2009,
) -> list[EffectivenessRow]:
    """Table II: precision / recall / F1 of DI-matching on the ground-truth cohort.

    For each study day a labelled cohort is generated, a few exemplar users per
    category are used as query patterns, and DI-matching's retrieved set (at the
    natural weight-sum-1 cutoff) is compared against the ε-similarity ground truth.
    """
    require_positive(day_count, "day_count")
    require_positive(queries_per_category, "queries_per_category")
    require_non_negative(epsilon, "epsilon")
    rows: list[EffectivenessRow] = []
    for day_index in range(day_count):
        cohort = build_ground_truth_cohort(
            day_index, cohort_size=cohort_size, noise_level=noise_level, seed=seed
        )
        dataset = cohort.dataset
        query_count = queries_per_category * len(dataset.query_categories())
        workload = build_query_workload(
            dataset, query_count, epsilon, seed=seed + day_index
        )
        config = DIMatchingConfig(sample_count=sample_count, epsilon=epsilon)
        comparison = run_comparison(dataset, workload, config=config, methods=("wbf",))
        metrics = comparison.outcome("wbf").metrics
        day_label = (
            PAPER_STUDY_DAYS[day_index]
            if day_index < len(PAPER_STUDY_DAYS)
            else f"synthetic day {day_index}"
        )
        rows.append(
            EffectivenessRow(
                day_label=day_label,
                precision=metrics.precision,
                recall=metrics.recall,
                f1=metrics.f1,
            )
        )
    return rows
