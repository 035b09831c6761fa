"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCompareCommand:
    def test_runs_and_prints_table(self, capsys):
        exit_code = main(
            [
                "compare",
                "--users-per-category", "4",
                "--stations", "3",
                "--queries", "3",
                "--seed", "3",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "precision" in captured
        assert "wbf" in captured

    def test_method_selection(self, capsys):
        main(
            [
                "compare",
                "--users-per-category", "4",
                "--stations", "3",
                "--queries", "2",
                "--methods", "naive", "wbf",
            ]
        )
        captured = capsys.readouterr().out
        assert "naive" in captured
        assert " bf " not in captured

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            main(["compare", "--methods", "magic"])

    def test_fault_profile_adds_reliability_columns(self, capsys):
        exit_code = main(
            [
                "compare",
                "--users-per-category", "4",
                "--stations", "3",
                "--queries", "2",
                "--seed", "3",
                "--methods", "naive", "wbf",
                "--fault-profile", "chaos",
                "--net-seed", "5",
                "--allow-partial",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "faults: chaos (net seed 5)" in captured
        assert "retransmits" in captured
        assert "goodput" in captured

    def test_fault_free_table_keeps_legacy_columns(self, capsys):
        main(
            [
                "compare",
                "--users-per-category", "4",
                "--stations", "3",
                "--queries", "2",
                "--seed", "3",
                "--methods", "wbf",
            ]
        )
        captured = capsys.readouterr().out
        assert "retransmits" not in captured
        assert "faults:" not in captured

    def test_rejects_unknown_fault_profile(self):
        with pytest.raises(SystemExit):
            main(["compare", "--fault-profile", "catastrophic"])


class TestTable2Command:
    def test_runs_one_day(self, capsys):
        exit_code = main(["table2", "--days", "1", "--cohort-size", "48"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "March 28th, 2009" in captured
        assert "Precision" in captured

    def test_a_small_cohort_runs(self, capsys):
        # Five users leave some category with decoys only; no query samples it.
        exit_code = main(["table2", "--days", "1", "--cohort-size", "5"])
        assert exit_code == 0
        assert "March 28th, 2009" in capsys.readouterr().out


class TestConvergenceCommand:
    def test_runs_small_study(self, capsys):
        exit_code = main(["convergence", "--samples", "2", "8", "--groups", "2"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "group-1" in captured


class TestFigureCommand:
    @pytest.mark.parametrize("name", ["fig1a", "fig3"])
    def test_descriptive_figures(self, capsys, name):
        exit_code = main(["figure", name])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "legend" in captured

    def test_fig1b(self, capsys):
        exit_code = main(["figure", "fig1b"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "CDF" in captured

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig9"])


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


#: Every count and tolerance of ``compare``, ``table2`` and ``convergence``
#: out of its range; each used to fail later with a ``ValueError`` traceback.
BAD_COUNTS = [
    ["compare", "--stations", "0"],
    ["compare", "--queries", "-3"],
    ["compare", "--users-per-category", "0"],
    ["compare", "--sample-count", "0"],
    ["compare", "--days", "0"],
    ["compare", "--intervals-per-day", "0"],
    ["compare", "--epsilon", "-1"],
    ["compare", "--noise", "-1"],
    ["table2", "--days", "0"],
    ["table2", "--cohort-size", "0"],
    ["table2", "--epsilon", "-1"],
    ["convergence", "--groups", "0"],
    ["convergence", "--samples", "0"],
]


class TestCountsAreRangeChecked:
    @pytest.mark.parametrize(
        "argv", BAD_COUNTS, ids=[f"{command}{flag}={value}" for command, flag, value in BAD_COUNTS]
    )
    def test_the_parser_refuses_a_bad_count(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert "must be >=" in capsys.readouterr().err


class TestWorkloadCommand:
    TINY = [
        "--stations", "3", "--users-per-category", "3", "--rounds", "2",
    ]

    def test_list_prints_the_catalog(self, capsys):
        exit_code = main(["workload", "list"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        for name in ("steady-state", "flash-crowd", "degraded-network"):
            assert name in captured

    def test_run_prints_rounds_and_summary(self, capsys):
        exit_code = main(["workload", "run", "steady-state", *self.TINY])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "scenario: steady-state" in captured
        assert "precision" in captured
        assert "p99" in captured

    def test_faulty_scenario_prints_reliability_columns(self, capsys):
        exit_code = main(["workload", "run", "degraded-network", *self.TINY])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "goodput" in captured
        assert "retransmits" in captured

    def test_session_drive_runs(self, capsys):
        exit_code = main(
            ["workload", "run", "long-session", *self.TINY, "--drive", "session"]
        )
        assert exit_code == 0
        assert "drive session" in capsys.readouterr().out

    def test_json_dir_writes_bench_file(self, capsys, tmp_path):
        exit_code = main(
            ["workload", "run", "steady-state", *self.TINY, "--json-dir", str(tmp_path)]
        )
        assert exit_code == 0
        assert (tmp_path / "BENCH_workload_steady_state.json").exists()

    def test_seed_override_changes_the_run_identity(self, capsys):
        main(["workload", "run", "steady-state", *self.TINY, "--seed", "99"])
        assert "seed 99" in capsys.readouterr().out

    def test_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            main(["workload", "run", "black-friday"])

    def test_rejects_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main(["workload"])

    def test_rejects_unknown_drive(self):
        with pytest.raises(SystemExit):
            main(["workload", "run", "steady-state", "--drive", "teleport"])

    def test_rejects_non_positive_rounds(self):
        with pytest.raises(SystemExit):
            main(["workload", "run", "steady-state", "--rounds", "0"])

    def test_rejects_non_positive_stations(self):
        with pytest.raises(SystemExit):
            main(["workload", "run", "steady-state", "--stations", "-2"])

    def test_rejects_unknown_fault_profile(self):
        with pytest.raises(SystemExit):
            main(["workload", "run", "steady-state", "--fault-profile", "catastrophic"])

    def test_arrival_rate_implies_the_open_drive(self, capsys):
        exit_code = main(
            ["workload", "run", "steady-state", *self.TINY,
             "--arrival-rate", "4", "--max-arrivals", "6",
             "--ramp", "plateau:2"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "drive open" in captured
        assert "offered 4 qps" in captured
        assert "queue s" in captured
        assert "arrival s" in captured
        assert "phase plateau:" in captured

    def test_open_scenario_carries_its_own_offered_load(self, capsys):
        exit_code = main(
            ["workload", "run", "open-ramp", *self.TINY, "--drive", "open",
             "--max-arrivals", "8"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        # The scenario's four-phase ramp shows up in the per-phase summary.
        assert "offered 4 qps" in captured
        assert "phase warm-up:" in captured
        assert "phase drain:" in captured
        assert "no arrivals" in captured

    def test_ramp_flag_overrides_the_schedule(self, capsys):
        exit_code = main(
            ["workload", "run", "open-steady", *self.TINY, "--drive", "open",
             "--ramp", "burst:1:2,quiet:1:0", "--arrival-process", "scheduled",
             "--max-arrivals", "4"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "scheduled, 2 phases" in captured
        assert "phase burst:" in captured
        assert "phase quiet:" in captured

    def test_open_runs_are_deterministic(self, capsys):
        argv = [
            "workload", "run", "open-saturation", *self.TINY,
            "--drive", "open", "--max-arrivals", "6",
        ]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_rejects_open_flags_on_closed_drives(self):
        with pytest.raises(SystemExit, match="apply only to --drive open"):
            main(
                ["workload", "run", "steady-state", *self.TINY,
                 "--drive", "simulation", "--arrival-rate", "4"]
            )

    def test_each_density_flag_is_refused_on_the_other_kind_of_city(self):
        # Streaming sources take --users-per-station only; the old alias
        # exits naming the flag to use, as eager scenarios do the other way.
        with pytest.raises(SystemExit, match="use --users-per-station"):
            main(["workload", "run", "open-soak-1m", "--users-per-category", "3"])
        with pytest.raises(SystemExit, match="use --users-per-category"):
            main(["workload", "run", "steady-state", "--users-per-station", "3"])

    def test_rejects_open_drive_without_an_offered_load(self):
        with pytest.raises(SystemExit, match="offered load"):
            main(["workload", "run", "steady-state", *self.TINY, "--drive", "open"])

    def test_rejects_malformed_ramp_phases(self):
        for ramp in ("", "plateau", "plateau:zero", "p:1:1:1", "a:1,a:2"):
            with pytest.raises(SystemExit):
                main(
                    ["workload", "run", "open-steady", "--drive", "open",
                     "--ramp", ramp]
                )

    def test_rejects_non_positive_arrival_rate(self):
        with pytest.raises(SystemExit):
            main(["workload", "run", "open-steady", "--arrival-rate", "0"])


class TestWorkloadTopologyFlags:
    TINY = [
        "--stations", "3", "--users-per-category", "3", "--rounds", "2",
    ]

    def test_two_tier_override_prints_the_topology_header(self, capsys):
        exit_code = main(
            ["workload", "run", "steady-state", *self.TINY,
             "--topology", "two-tier", "--regions", "2"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "topology two-tier (2 regions)" in captured

    def test_hier_scenarios_run_from_the_catalog(self, capsys):
        for name in ("hier-steady", "hier-degraded-region"):
            exit_code = main(["workload", "run", name, *self.TINY])
            assert exit_code == 0
            assert "topology two-tier" in capsys.readouterr().out

    def test_tenant_flag_prints_per_tenant_summaries(self, capsys):
        exit_code = main(
            ["workload", "run", "steady-state", *self.TINY, "--tenants", "2"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "2 tenants" in captured
        assert "tenant tenant-0:" in captured
        assert "tenant tenant-1:" in captured

    def test_multi_tenant_scenario_runs_with_named_tenants(self, capsys):
        exit_code = main(["workload", "run", "multi-tenant-skew", *self.TINY])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "tenant hot:" in captured
        assert "tenant broad:" in captured

    def test_rejects_unknown_topology_kind(self):
        with pytest.raises(SystemExit):
            main(
                ["workload", "run", "steady-state", *self.TINY,
                 "--topology", "ring"]
            )

    def test_rejects_more_regions_than_stations(self):
        with pytest.raises(SystemExit, match="must not exceed stations"):
            main(
                ["workload", "run", "steady-state", *self.TINY,
                 "--topology", "two-tier", "--regions", "5"]
            )

    def test_rejects_regions_on_the_flat_star(self):
        with pytest.raises(SystemExit, match="applies only to --topology two-tier"):
            main(
                ["workload", "run", "steady-state", *self.TINY,
                 "--topology", "star", "--regions", "2"]
            )

    def test_rejects_tenants_on_the_open_drive(self):
        with pytest.raises(SystemExit, match="closed-loop"):
            main(
                ["workload", "run", "open-steady", *self.TINY,
                 "--drive", "open", "--tenants", "2"]
            )

    def test_rejects_non_positive_region_and_tenant_counts(self):
        with pytest.raises(SystemExit):
            main(
                ["workload", "run", "steady-state", *self.TINY,
                 "--topology", "two-tier", "--regions", "0"]
            )
        with pytest.raises(SystemExit):
            main(
                ["workload", "run", "steady-state", *self.TINY, "--tenants", "0"]
            )
