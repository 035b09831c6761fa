"""Unit tests for the experiment runners."""

import pytest

from repro.core.config import DIMatchingConfig
from repro.datagen.workload import build_query_workload
from repro.evaluation.experiments import (
    ComparisonResult,
    convergence_study,
    effectiveness_study,
    ground_truth_users,
    make_protocols,
    run_comparison,
    sweep_query_counts,
)


class TestGroundTruth:
    def test_contains_query_users(self, small_dataset, small_workload):
        truth = ground_truth_users(small_dataset, list(small_workload.queries), 0)
        for query in small_workload.queries:
            assert query.local_patterns[0].user_id in truth

    def test_grows_with_epsilon(self, small_dataset, small_workload):
        queries = list(small_workload.queries)
        strict = ground_truth_users(small_dataset, queries, 0)
        loose = ground_truth_users(small_dataset, queries, 10)
        assert strict <= loose

    def test_rejects_empty_queries(self, small_dataset):
        with pytest.raises(ValueError):
            ground_truth_users(small_dataset, [], 0)


class TestMakeProtocols:
    def test_default_methods(self, exact_config):
        protocols = make_protocols(exact_config)
        assert [p.name for p in protocols] == ["naive", "bf", "wbf"]

    def test_local_method(self, exact_config):
        protocols = make_protocols(exact_config, methods=("local",))
        assert protocols[0].name == "local"

    def test_unknown_method_rejected(self, exact_config):
        with pytest.raises(ValueError):
            make_protocols(exact_config, methods=("magic",))

    def test_empty_methods_rejected(self, exact_config):
        with pytest.raises(ValueError):
            make_protocols(exact_config, methods=())

    def test_baselines_take_the_configs_epsilon(self, approx_config):
        protocols = make_protocols(approx_config, methods=("naive", "local", "wbf"))
        assert [p.epsilon for p in protocols[:2]] == [2.0, 2.0]
        assert protocols[2].config is approx_config


class TestRunComparison:
    def test_result_structure(self, small_dataset, small_workload, exact_config):
        result = run_comparison(small_dataset, small_workload, exact_config)
        assert isinstance(result, ComparisonResult)
        assert set(result.outcomes) == {"naive", "bf", "wbf"}
        assert result.query_count == len(small_workload)
        assert result.combined_pattern_count >= result.query_count
        assert result.ground_truth

    def test_naive_is_exact(self, small_dataset, small_workload, exact_config):
        result = run_comparison(small_dataset, small_workload, exact_config)
        assert result.outcome("naive").metrics.precision == 1.0
        assert result.outcome("naive").metrics.recall == 1.0

    def test_wbf_matches_naive_precision(self, small_dataset, small_workload, exact_config):
        result = run_comparison(small_dataset, small_workload, exact_config)
        assert result.outcome("wbf").metrics.precision >= 0.95

    def test_bf_precision_below_wbf(self, small_dataset, small_workload, exact_config):
        result = run_comparison(small_dataset, small_workload, exact_config)
        assert (
            result.outcome("bf").metrics.precision
            <= result.outcome("wbf").metrics.precision
        )

    def test_relative_costs_of_baseline_are_one(self, small_dataset, small_workload, exact_config):
        result = run_comparison(small_dataset, small_workload, exact_config)
        relative = result.relative_costs("naive")
        assert relative["communication"] == 1.0
        assert relative["storage"] == 1.0

    def test_unknown_method_outcome_rejected(self, small_dataset, small_workload, exact_config):
        result = run_comparison(small_dataset, small_workload, exact_config, methods=("wbf",))
        with pytest.raises(KeyError):
            result.outcome("naive")

    def test_explicit_k(self, small_dataset, small_workload, exact_config):
        result = run_comparison(small_dataset, small_workload, exact_config, methods=("wbf",), k=3)
        assert len(result.outcome("wbf").retrieved) <= 3


class TestSweeps:
    def test_sweep_query_counts(self, small_dataset, exact_config):
        results = sweep_query_counts(
            small_dataset, [2, 4], epsilon=0, config=exact_config, methods=("naive", "wbf")
        )
        assert len(results) == 2
        assert results[0].query_count == 2
        assert results[1].query_count == 4
        assert results[1].combined_pattern_count >= results[0].combined_pattern_count

    def test_sweep_rejects_empty(self, small_dataset, exact_config):
        with pytest.raises(ValueError):
            sweep_query_counts(small_dataset, [], epsilon=0, config=exact_config)

    def test_convergence_study_shape(self):
        results = convergence_study(
            sample_counts=[2, 8],
            group_count=2,
            users_per_category=4,
            station_count=4,
            query_count=4,
        )
        assert len(results) == 2
        for per_group in results.values():
            assert set(per_group) == {2, 8}
            assert all(0.0 <= v <= 1.0 for v in per_group.values())

    def test_convergence_accuracy_improves_with_samples(self):
        results = convergence_study(
            sample_counts=[1, 12],
            group_count=2,
            users_per_category=6,
            station_count=4,
            query_count=6,
        )
        improvements = [per_group[12] >= per_group[1] for per_group in results.values()]
        assert any(improvements)

    def test_effectiveness_study_rows(self):
        rows = effectiveness_study(day_count=1, cohort_size=48, queries_per_category=1)
        assert len(rows) == 1
        row = rows[0]
        assert row.day_label == "March 28th, 2009"
        assert 0.0 <= row.precision <= 1.0
        assert 0.0 <= row.recall <= 1.0
        assert 0.0 <= row.f1 <= 1.0

    def test_effectiveness_study_high_quality(self):
        rows = effectiveness_study(day_count=1, cohort_size=96, queries_per_category=2)
        assert rows[0].f1 >= 0.9
