"""End-to-end integration tests: full DI-matching over the simulated environment."""

import pytest

from repro.cluster import Cluster
from repro.core.dimatching import DIMatchingProtocol, run_dimatching
from repro.datagen.workload import DatasetSpec, build_dataset, build_query_workload
from repro.evaluation.experiments import ground_truth_users, run_comparison


class TestExactMatchingEndToEnd:
    def test_wbf_recovers_ground_truth_exactly(self, small_dataset, small_workload, exact_config):
        queries = list(small_workload.queries)
        truth = ground_truth_users(small_dataset, queries, small_workload.epsilon)
        results = run_dimatching(small_dataset, queries, exact_config, k=None)
        complete_matches = {entry.user_id for entry in results if entry.score == 1.0}
        assert complete_matches == set(truth)

    def test_decoys_never_retrieved_with_full_score(self, small_dataset, small_workload, exact_config):
        queries = list(small_workload.queries)
        results = run_dimatching(small_dataset, queries, exact_config, k=None)
        decoys = {u for u in small_dataset.user_ids if small_dataset.profile(u).is_decoy}
        complete_matches = {entry.user_id for entry in results if entry.score == 1.0}
        assert complete_matches.isdisjoint(decoys)

    def test_simulation_and_in_process_run_agree(self, small_dataset, small_workload, exact_config):
        queries = list(small_workload.queries)
        in_process = run_dimatching(small_dataset, queries, exact_config, k=None)
        simulated = Cluster.adopt(small_dataset).drive(
            DIMatchingProtocol(exact_config), queries
        )
        assert in_process.user_ids() == simulated.results.user_ids()


class TestApproximateMatchingEndToEnd:
    def test_epsilon_matching_recovers_most_of_ground_truth(
        self, noisy_dataset, noisy_workload, approx_config
    ):
        queries = list(noisy_workload.queries)
        truth = ground_truth_users(noisy_dataset, queries, noisy_workload.epsilon)
        results = run_dimatching(noisy_dataset, queries, approx_config, k=None)
        complete_matches = {entry.user_id for entry in results if entry.score == 1.0}
        assert truth
        recall = len(complete_matches & truth) / len(truth)
        precision = (
            len(complete_matches & truth) / len(complete_matches) if complete_matches else 1.0
        )
        assert recall >= 0.85
        assert precision >= 0.85


class TestMethodComparisonEndToEnd:
    def test_figure4a_shape_holds(self, small_dataset, small_workload, exact_config):
        """Naive and WBF precision are (near-)perfect; plain BF is clearly worse."""
        result = run_comparison(small_dataset, small_workload, exact_config)
        naive = result.outcome("naive").metrics.precision
        wbf = result.outcome("wbf").metrics.precision
        bf = result.outcome("bf").metrics.precision
        assert naive == 1.0
        assert wbf >= 0.95
        assert bf < wbf

    def test_figure4c_shape_holds(self, exact_config):
        """Filter-based methods move far fewer bytes than shipping the raw data.

        The advantage is a scale phenomenon (the filter is a fixed-size summary while
        the raw upload grows with users × intervals), so this check uses a dataset
        large enough for the raw data to dominate, as in the paper's city-scale
        setting.  Since the wire codec landed these are *real* encoded byte counts
        — varint packing shrinks the naive upload too, so the crossover sits at a
        larger user count than under the old estimate model.
        """
        dataset = build_dataset(
            DatasetSpec(
                users_per_category=180,
                station_count=6,
                days=2,
                noise_level=0,
                cliques_per_place=3,
                seed=42,
            )
        )
        workload = build_query_workload(dataset, 6, epsilon=0, seed=7)
        result = run_comparison(dataset, workload, exact_config)
        assert result.relative_costs("wbf")["communication"] < 0.5
        assert result.relative_costs("bf")["communication"] < 0.5

    def test_local_only_baseline_is_lossy(self, small_dataset, small_workload, exact_config):
        result = run_comparison(
            small_dataset, small_workload, exact_config, methods=("naive", "local")
        )
        assert (
            result.outcome("local").metrics.recall
            < result.outcome("naive").metrics.recall
        )


class TestScalesAndSeeds:
    @pytest.mark.parametrize("station_count", [1, 2, 6])
    def test_works_with_varying_station_counts(self, station_count, exact_config):
        dataset = build_dataset(
            DatasetSpec(
                users_per_category=4,
                station_count=station_count,
                replicated_decoys_per_category=0,
                noise_level=0,
                seed=5,
            )
        )
        workload = build_query_workload(dataset, 3, epsilon=0)
        results = run_dimatching(dataset, list(workload.queries), exact_config, k=None)
        retrieved = set(results.user_ids())
        for query in workload.queries:
            assert query.local_patterns[0].user_id in retrieved

    def test_multi_day_patterns(self, exact_config):
        dataset = build_dataset(
            DatasetSpec(users_per_category=3, station_count=3, days=2, noise_level=0, seed=9)
        )
        assert dataset.pattern_length == 48
        workload = build_query_workload(dataset, 3, epsilon=0)
        truth = ground_truth_users(dataset, list(workload.queries), 0)
        results = run_dimatching(dataset, list(workload.queries), exact_config, k=None)
        complete = {entry.user_id for entry in results if entry.score == 1.0}
        assert complete == set(truth)
