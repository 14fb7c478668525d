"""Tests for the CLI and the ablation helpers."""

import importlib
import json

import pytest

from repro.experiments.cli import ABLATIONS, EXPERIMENTS, main
from repro.experiments.ablations import run_variant
from repro.core.config import SystemConfig
from repro.runtime.backends import BackendStartupError

_FIGURES = "repro.experiments.cli:_cmd_experiments"

#: every subcommand -> (its handler, argv that parses, argv with a usage
#: error argparse catches)
COMMANDS = {
    **{name: (_FIGURES, [name], [name, "--seed", "x"])
       for name in [*EXPERIMENTS, "ablations", "all"]},
    "list": ("repro.experiments.cli:_cmd_list", ["list"], ["list", "extra"]),
    "run": ("repro.experiments.run_cli:cmd_run", ["run"],
            ["run", "--engine", "warp"]),
    "parity": ("repro.runtime.parity:cmd_parity", ["parity"],
               ["parity", "--scenario", "nope"]),
    "campaign run": ("repro.campaign.cli:cmd_run",
                     ["campaign", "run", "spec.json"], ["campaign", "run"]),
    "campaign status": ("repro.campaign.cli:cmd_status",
                        ["campaign", "status"],
                        ["campaign", "status", "--interval", "x"]),
    "campaign clean": ("repro.campaign.cli:cmd_clean", ["campaign", "clean"],
                       ["campaign", "clean", "--force"]),
    "check": ("repro.check.cli:cmd_check", ["check"],
              ["check", "--output", "xml"]),
    "profile": ("repro.experiments.profile:cmd_profile", ["profile", "fig3"],
                ["profile", "fig3", "--engine", "warp"]),
    "watch": ("repro.obs.watch:cmd_watch", ["watch", "m.jsonl"], ["watch"]),
}


def _raise_from(monkeypatch, handler, exc):
    module, _, attr = handler.partition(":")

    def raiser(args):
        raise exc

    monkeypatch.setattr(importlib.import_module(module), attr, raiser)


class TestCli:
    def test_list_exits_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["figure99"]) == 2

    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "768 kbps" in out

    def test_registry_covers_every_figure(self):
        for fig in ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                    "fig9", "fig10", "table1", "model", "convergence"):
            assert fig in EXPERIMENTS

    def test_ablation_registry(self):
        assert set(ABLATIONS) == {
            "offset", "parent-choice", "mcache", "cooldown", "substreams",
            "delivery-mode",
        }

    def test_unknown_experiment_prints_one_line_error(self, capsys):
        assert main(["figure99"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_experiment_exception_exits_one_without_traceback(
            self, capsys, monkeypatch):
        def boom(seed):
            raise RuntimeError("synthetic failure")
        monkeypatch.setitem(EXPERIMENTS, "boom", boom)
        assert main(["boom"]) == 1
        err = capsys.readouterr().err
        assert "error: boom: RuntimeError: synthetic failure" in err
        assert "Traceback" not in err

    def test_quiet_suppresses_tables(self, capsys):
        assert main(["table1", "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_metrics_out_writes_series_and_manifest(self, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        assert main(["table1", "--quiet",
                     "--metrics-out", str(metrics), "--seed", "3"]) == 0
        lines = [json.loads(l) for l in metrics.read_text().splitlines()]
        assert lines  # at least the final snapshot
        manifest = json.loads((tmp_path / "m.manifest.json").read_text())
        assert manifest["scenario"] == "table1"
        assert manifest["seed"] == 3

    def test_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert main(["model", "--quiet", "--trace-out", str(trace)]) == 0
        data = json.loads(trace.read_text())
        assert "traceEvents" in data


class TestCommandTree:
    def test_table_covers_every_listed_command(self, capsys):
        assert main(["list"]) == 0
        listed = capsys.readouterr().out.split()
        assert listed == list(dict.fromkeys(c.split()[0] for c in COMMANDS))

    @pytest.mark.parametrize("handler, argv, bad_argv", COMMANDS.values(),
                             ids=list(COMMANDS))
    def test_exit_code_mapping(self, handler, argv, bad_argv, monkeypatch,
                               capsys):
        assert main(bad_argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

        _raise_from(monkeypatch, handler, KeyboardInterrupt())
        assert main(argv) == 130
        assert capsys.readouterr().err == "error: interrupted\n"

        _raise_from(monkeypatch, handler, BackendStartupError("port in use"))
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: backend startup: port in use\n"

    def test_help_returns_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["parity", "--help"]) == 0
        assert "--engines" in capsys.readouterr().out

    def test_run_nan_horizon_is_usage_error(self, capsys):
        assert main(["run", "--engine", "fast", "--users", "100",
                     "--horizon", "nan"]) == 2
        assert capsys.readouterr().err.startswith("error: run:")

    def test_run_engine_exception_is_one_error_line(self, monkeypatch,
                                                    capsys):
        import repro.experiments.run_cli as run_cli

        def boom(*args, **kwargs):
            raise ValueError("lam < 0 or lam is NaN")

        monkeypatch.setattr(run_cli, "run_scenario", boom)
        assert main(["run", "--engine", "fast", "--users", "100"]) == 1
        err = capsys.readouterr().err
        assert err == "error: run: ValueError: lam < 0 or lam is NaN\n"

    def test_profile_engine_uses_registry_choices(self, capsys):
        assert main(["profile", "fig3", "--engine", "warp"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_seed_reaches_only_functions_that_declare_it(self, monkeypatch,
                                                          capsys):
        table1, seen = EXPERIMENTS["table1"], []

        def spy(cfg=None):
            seen.append(cfg)
            return table1(cfg)

        monkeypatch.setitem(EXPERIMENTS, "table1", spy)
        assert main(["table1", "--quiet", "--seed", "5"]) == 0
        assert seen == [None]


class TestRunVariant:
    def test_metrics_schema(self):
        cfg = SystemConfig(n_servers=2)
        out = run_variant(cfg, seed=0, burst_users_per_s=0.5, horizon_s=400.0)
        assert set(out) == {
            "sessions", "success_fraction", "continuity", "adaptations",
            "ready_median_s", "ready_p90_s",
        }
        assert out["sessions"] > 0

    def test_matched_seeds_identical_baseline(self):
        """Two runs of the same variant are bit-identical (the property
        the ablation comparisons rely on)."""
        cfg = SystemConfig(n_servers=2)
        a = run_variant(cfg, seed=5, burst_users_per_s=0.5, horizon_s=400.0)
        b = run_variant(cfg, seed=5, burst_users_per_s=0.5, horizon_s=400.0)
        assert a == b

    def test_variant_flag_actually_changes_behaviour(self):
        base = SystemConfig(n_servers=2)
        a = run_variant(base, seed=5, burst_users_per_s=0.8, horizon_s=400.0)
        b = run_variant(
            base.with_overrides(initial_offset_mode="oldest"),
            seed=5, burst_users_per_s=0.8, horizon_s=400.0,
        )
        assert a != b
