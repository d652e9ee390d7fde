"""CLI surface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for argv in (
            ["list"],
            ["run", "E4"],
            ["estimate", "--pd", "0.1"],
            ["bounds", "--pd", "0.1"],
            ["theorems"],
            ["faults", "list"],
            ["faults", "run", "bursty_loss", "--symbols", "500"],
        ):
            assert parser.parse_args(argv) is not None


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E9" in out

    def test_estimate(self, capsys):
        assert main(["estimate", "--pd", "0.1", "--pi", "0.05", "--bits", "4"]) == 0
        out = capsys.readouterr().out
        assert "3.6000" in out

    def test_estimate_with_physical(self, capsys):
        assert main(
            ["estimate", "--pd", "0.2", "--physical", "10"]
        ) == 0
        assert "8.0000" in capsys.readouterr().out

    def test_bounds(self, capsys):
        assert main(["bounds", "--pd", "0.1", "--pi", "0.1", "--bits", "3"]) == 0
        out = capsys.readouterr().out
        assert "lower bound" in out and "upper bound" in out

    def test_theorems(self, capsys):
        assert main(["theorems"]) == 0
        out = capsys.readouterr().out
        for k in range(1, 6):
            assert f"Theorem {k}" in out

    def test_run_deterministic_experiment(self, capsys):
        assert main(["run", "E4"]) == 0
        out = capsys.readouterr().out
        assert "[E4]" in out
        assert "PASS" in out

    def test_run_with_seed(self, capsys):
        assert main(["run", "E5", "--seed", "3"]) == 0

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["run", "E99"]) == 2
        err = capsys.readouterr().err
        assert "error: unknown experiment 'E99'; known: [" in err
        assert "Traceback" not in err

    def test_faults_list(self, capsys):
        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "bursty_loss" in out
        assert "stress" in out

    def test_faults_run(self, capsys):
        code = main(
            ["faults", "run", "counter_desync", "--symbols", "4000", "--seed", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "completed          : True" in out
        assert "within bound       : True" in out
        assert "desyncs_injected" in out

    def test_faults_unknown_scenario(self, capsys):
        assert main(["faults", "run", "no_such_scenario"]) == 2
        err = capsys.readouterr().err
        assert "error: unknown fault scenario 'no_such_scenario'; known: [" in err

    @pytest.mark.parametrize(
        "scenario", ["baseline", "bursty_loss", "slow_drift", "counter_desync", "stress"]
    )
    def test_faults_certain_deletion_exits_2(self, capsys, scenario):
        argv = ["faults", "run", scenario, "--pd", "1.0", "--pi", "0", "--symbols", "16"]
        assert main(argv) == 2
        assert "never delivers" in capsys.readouterr().err

    def test_service_unknown_scenario_exits_2(self, capsys):
        assert main(["service", "run", "--scenario", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "error: unknown service fault scenario 'nosuch'; available: " in err

    def test_faults_without_subcommand(self, capsys):
        assert main(["faults"]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_report_writes_file(self, tmp_path, capsys):
        # Only deterministic experiments are cheap enough here; patch
        # the registry to a subset for speed.
        import repro.cli as cli_mod
        from repro.experiments.registry import EXPERIMENTS

        out = tmp_path / "report.txt"
        original = dict(EXPERIMENTS)
        try:
            for key in list(EXPERIMENTS):
                if key not in ("E4", "E5"):
                    del EXPERIMENTS[key]
            code = cli_mod.main(["report", "--output", str(out)])
        finally:
            EXPERIMENTS.clear()
            EXPERIMENTS.update(original)
        assert code == 0
        text = out.read_text()
        assert "[E4]" in text and "[E5]" in text
        assert "2/2 experiments passed" in text


class TestStoreCommands:
    @pytest.fixture
    def populated_dir(self, tmp_path):
        from repro.store import ResultStore, canonical_key

        store = ResultStore(tmp_path / "cache")
        store.put(
            canonical_key("toy", {"i": 1}),
            {"v": 1},
            fn_id="toy",
            compute_seconds=2.5,
        )
        return str(tmp_path / "cache")

    def test_store_subcommands_parse(self):
        parser = build_parser()
        for argv in (
            ["store", "ls"],
            ["store", "ls", "--dir", "/tmp/x"],
            ["store", "inspect", "abc123"],
            ["store", "gc", "--max-age-days", "30", "--dry-run"],
            ["store", "gc", "--max-bytes", "1000000"],
            ["store", "verify"],
            ["store", "stats"],
            ["run", "E4", "--format", "json"],
        ):
            assert parser.parse_args(argv) is not None

    def test_store_without_subcommand(self, capsys):
        assert main(["store"]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_store_without_dir_or_env_errors(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        assert main(["store", "ls"]) == 2
        assert "no store configured" in capsys.readouterr().err

    def test_store_ls_and_stats(self, populated_dir, capsys):
        assert main(["store", "ls", "--dir", populated_dir]) == 0
        out = capsys.readouterr().out
        assert "toy" in out and "1 entries" in out
        assert main(["store", "stats", "--dir", populated_dir]) == 0
        out = capsys.readouterr().out
        assert "entries    : 1" in out
        assert "toy" in out

    def test_store_env_var_is_honored(self, populated_dir, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", populated_dir)
        assert main(["store", "stats"]) == 0
        assert "entries    : 1" in capsys.readouterr().out

    def test_store_inspect_by_prefix(self, populated_dir, capsys):
        from repro.store import canonical_key

        key = canonical_key("toy", {"i": 1})
        assert main(["store", "inspect", key[:10], "--dir", populated_dir]) == 0
        out = capsys.readouterr().out
        assert '"fn_id": "toy"' in out

    def test_store_inspect_unknown_prefix(self, populated_dir, capsys):
        assert main(["store", "inspect", "ffff", "--dir", populated_dir]) == 2
        assert "no entry matches" in capsys.readouterr().err

    def test_store_gc_dry_run_then_real(self, populated_dir, capsys):
        assert main(
            ["store", "gc", "--max-bytes", "0", "--dry-run", "--dir", populated_dir]
        ) == 0
        assert "would evict 1 entries" in capsys.readouterr().out
        assert main(
            ["store", "gc", "--max-bytes", "0", "--dir", populated_dir]
        ) == 0
        assert "evicted 1 entries" in capsys.readouterr().out
        assert main(["store", "ls", "--dir", populated_dir]) == 0
        assert "empty" in capsys.readouterr().out

    def test_store_verify_clean_and_corrupt(self, populated_dir, capsys):
        assert main(["store", "verify", "--dir", populated_dir]) == 0
        assert "all entries verify" in capsys.readouterr().out
        from repro.store import ResultStore

        store = ResultStore(populated_dir)
        [key] = store.keys()
        (store.path_for(key) / "payload.json").write_text('{"tampered": 1}')
        assert main(["store", "verify", "--dir", populated_dir]) == 1
        assert "1 problems" in capsys.readouterr().out


class TestRunJsonFormat:
    def test_run_format_json_emits_parseable_results(self, capsys):
        import json as json_mod

        assert main(["run", "E4", "--format", "json"]) == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 1
        assert payload[0]["experiment_id"] == "E4"
        assert payload[0]["passed"] is True


class TestRunBudgetFlag:
    def test_budget_flag_parses(self):
        parser = build_parser()
        args = parser.parse_args(["run", "E4", "--budget", "30"])
        assert args.budget == 30.0
        assert parser.parse_args(["run", "E4"]).budget is None

    def test_budget_kwarg_reaches_the_experiment(self):
        from repro.cli import _runner_kwargs

        kwargs = _runner_kwargs("E4", seed=1, workers=2, budget=30.0)
        assert kwargs["budget"] == 30.0
        # Deterministic-table experiments never see the knob.
        assert "budget" not in _runner_kwargs("E1", seed=1, budget=30.0)

    def test_exhausted_budget_fails_the_experiment_gracefully(self, capsys):
        # A budget this small cannot finish the Monte-Carlo spot-check:
        # the run must report FAILURE in prose, not raise.
        code = main(["run", "E4", "--budget", "0.000001"])
        out = capsys.readouterr().out
        assert code == 1
        assert "budget" in out.lower()


class TestServiceCommands:
    def test_service_subcommands_parse(self):
        parser = build_parser()
        for argv in (
            ["service", "run"],
            ["service", "run", "--n", "100", "--scenario", "chaos"],
            ["service", "run", "--format", "json", "--output", "/tmp/r.json"],
            ["service", "stats", "--n", "50"],
            ["service", "replay", "--n", "50", "--seed", "3"],
            ["service", "scenarios"],
        ):
            assert parser.parse_args(argv) is not None

    def test_service_without_subcommand(self, capsys):
        assert main(["service"]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_service_scenarios_lists_registry(self, capsys):
        assert main(["service", "scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("none", "chaos", "crashy_workers"):
            assert name in out
        assert "crash" in out and "malformed" in out

    def test_service_run_text_report(self, capsys):
        code = main(
            ["service", "run", "--n", "80", "--scenario", "none",
             "--concurrency", "16", "--deadline", "30"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "lost              : 0" in out
        assert "statuses" in out

    def test_service_run_json_and_output_file(self, tmp_path, capsys):
        import json as json_mod

        out_file = tmp_path / "report.json"
        code = main(
            ["service", "run", "--n", "60", "--concurrency", "16",
             "--deadline", "30", "--format", "json",
             "--output", str(out_file)]
        )
        assert code == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["lost"] == 0
        assert payload == json_mod.loads(out_file.read_text())

    def test_service_stats_prints_counters(self, capsys):
        code = main(
            ["service", "stats", "--n", "60", "--concurrency", "16",
             "--deadline", "30"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "breaker state" in out
        assert "queue depth peak" in out
        assert "submitted         : 60" in out

    def test_service_replay_verifies_determinism(self, capsys):
        code = main(
            ["service", "replay", "--n", "60", "--concurrency", "16",
             "--deadline", "30"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 value mismatches" in out
