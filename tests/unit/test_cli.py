"""Unit tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import EXIT_INTERRUPTED, QUICK_OVERRIDES, build_parser, main
from repro.experiments import EXPERIMENTS
from repro.store import ResultStore


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_requires_known_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "bogus"])

    def test_run_accepts_quick(self):
        args = build_parser().parse_args(["run", "table1", "--quick"])
        assert args.experiment_id == "table1"
        assert args.quick

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExecution:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in EXPERIMENTS:
            assert experiment_id in out

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Packet size" in out

    def test_run_convergence(self, capsys):
        assert main(["run", "convergence"]) == 0
        out = capsys.readouterr().out
        assert "TFT" in out

    def test_quick_overrides_are_known_ids(self):
        assert set(QUICK_OVERRIDES) <= set(EXPERIMENTS)


class TestStoreRouting:
    def test_second_run_is_served_from_the_store(self, capsys):
        assert main(["run", "table1"]) == 0
        first = capsys.readouterr().out
        assert "cached" not in first
        assert main(["run", "table1"]) == 0
        second = capsys.readouterr().out
        assert "cached" in second
        assert "Packet size" in second  # same artefact, from disk

    def test_no_cache_escape_hatch(self, capsys):
        assert main(["run", "table1"]) == 0
        capsys.readouterr()
        assert main(["run", "table1", "--no-cache"]) == 0
        assert "cached" not in capsys.readouterr().out

    def test_explicit_store_dir(self, tmp_path, capsys):
        target = tmp_path / "elsewhere"
        assert main(["run", "table1", "--store", str(target)]) == 0
        capsys.readouterr()
        assert len(ResultStore(target).find("table1")) == 1


class TestStoreCommands:
    def _seed_store(self, capsys):
        assert main(["run", "table1"]) == 0
        capsys.readouterr()
        return ResultStore.default()

    def test_ls_show_roundtrip(self, capsys):
        store = self._seed_store(capsys)
        assert main(["store", "ls"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        digest = store.latest("table1")["digest"]
        assert main(["store", "show", digest[:12]]) == 0
        out = capsys.readouterr().out
        assert digest in out and "Packet size" in out

    def test_ls_empty_store(self, capsys):
        assert main(["store", "ls"]) == 0
        assert "empty" in capsys.readouterr().out

    def test_show_unknown_digest_fails_cleanly(self, capsys):
        assert main(["store", "show", "ffffffff"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_gc_reports_removals(self, capsys):
        self._seed_store(capsys)
        assert main(["store", "gc", "--keep", "0"]) == 0
        assert "removed 1" in capsys.readouterr().out


class TestCampaignCommands:
    def _spec_path(self, tmp_path):
        spec = {
            "experiment": "convergence",
            "params": {"n_players": 3, "n_stages": 2},
            "grid": {"seed": [1, 2]},
            "jobs": 1,
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(spec))
        return path

    def test_run_then_status_all_cached(self, tmp_path, capsys):
        path = self._spec_path(tmp_path)
        assert main(["campaign", "run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 tasks" in out and "2 executed" in out
        assert main(["campaign", "status", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 cached" in out and "0 pending" in out
        assert main(["campaign", "run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 executed" in out

    def test_bad_spec_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"experiment": "nope"}))
        assert main(["campaign", "run", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_interrupted_exit_code_is_130(self):
        assert EXIT_INTERRUPTED == 130


class TestDetectCommands:
    def test_screen_parses_with_defaults(self):
        args = build_parser().parse_args(["detect", "screen"])
        assert args.command == "detect"
        assert args.detect_command == "screen"
        assert args.nodes == 100_000
        assert args.shards == 1

    def test_screen_runs_on_a_small_population(self, capsys):
        assert (
            main(
                [
                    "detect", "screen",
                    "--nodes", "400",
                    "--slots", "20000",
                    "--chunk-slots", "2000",
                    "--seed", "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "population:     400 nodes" in out
        assert "flagged:" in out

    def test_screen_writes_json_report(self, tmp_path, capsys):
        report = tmp_path / "screen.json"
        assert (
            main(
                [
                    "detect", "screen",
                    "--nodes", "300",
                    "--slots", "10000",
                    "--chunk-slots", "1000",
                    "--output", str(report),
                ]
            )
            == 0
        )
        document = json.loads(report.read_text())
        assert document["n_nodes"] == 300
        assert len(document["flagged"]) == 300

    def test_screen_reads_measured_tau_file(self, tmp_path, capsys):
        tau_file = tmp_path / "tau.json"
        tau_file.write_text(json.dumps([0.001] * 50))
        assert (
            main(
                [
                    "detect", "screen",
                    "--tau-file", str(tau_file),
                    "--slots", "5000",
                    "--chunk-slots", "1000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "population:     50 nodes" in out

    def test_screen_missing_tau_file_fails_cleanly(self, capsys):
        assert (
            main(["detect", "screen", "--tau-file", "/nonexistent.json"]) == 1
        )
        assert "error:" in capsys.readouterr().err

    def test_screen_rejects_negative_max_stage(self, capsys):
        assert main(["detect", "screen", "--max-stage", "-1"]) != 0
        assert "max_stage" in capsys.readouterr().err

    def test_meanfield_quick_overrides_registered(self):
        assert "meanfield" in QUICK_OVERRIDES
