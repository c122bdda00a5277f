"""Unit tests for the declarative campaign engine."""

from __future__ import annotations

import json
import sys

import pytest

from repro.campaign import (
    CampaignSpec,
    campaign_status,
    expand_tasks,
    load_spec,
    run_campaign,
    spec_from_dict,
)
from repro.campaign import engine as engine_module
from repro.errors import CampaignError, ParameterError
from repro.store import ResultStore

TINY = {
    "name": "tiny",
    "experiment": "convergence",
    "params": {"n_players": 3, "n_stages": 2},
    "grid": {"seed": [1, 2]},
    "jobs": 1,
}


@pytest.fixture()
def store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path / "store")


class TestSpecValidation:
    def test_minimal_spec(self):
        spec = spec_from_dict({"experiment": "table1"})
        assert spec.experiment_id == "table1"
        assert spec.n_tasks == 1

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ParameterError):
            spec_from_dict({"experiment": "table9"})

    def test_unknown_top_level_keys_rejected(self):
        with pytest.raises(CampaignError):
            spec_from_dict({"experiment": "table1", "grids": {}})
        # Specs written for the retired backend registry name the key.
        with pytest.raises(CampaignError, match="'backend'"):
            spec_from_dict({"experiment": "table1", "backend": "cnative"})

    def test_empty_axis_rejected(self):
        with pytest.raises(CampaignError):
            spec_from_dict({"experiment": "table1", "grid": {"seed": []}})

    def test_zip_length_mismatch_rejected(self):
        with pytest.raises(CampaignError):
            spec_from_dict(
                {
                    "experiment": "table1",
                    "zip": {"a": [1, 2], "b": [1, 2, 3]},
                }
            )

    def test_overlapping_sections_rejected(self):
        with pytest.raises(CampaignError):
            spec_from_dict(
                {
                    "experiment": "table1",
                    "params": {"seed": 1},
                    "grid": {"seed": [1, 2]},
                }
            )

    def test_bad_seed_policy_rejected(self):
        with pytest.raises(CampaignError):
            spec_from_dict(
                {"experiment": "table1", "seeds": {"policy": "entropy"}}
            )

    def test_seed_axis_conflict_rejected(self):
        with pytest.raises(CampaignError):
            spec_from_dict(
                {
                    "experiment": "table1",
                    "grid": {"seed": [1]},
                    "seeds": {"parameter": "seed"},
                }
            )

    def test_negative_jobs_rejected(self):
        with pytest.raises(CampaignError):
            spec_from_dict({"experiment": "table1", "jobs": -1})


class TestLoadSpec:
    def test_json_spec(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(TINY))
        spec = load_spec(path)
        assert spec.name == "tiny"
        assert spec.grid == {"seed": [1, 2]}

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="tomllib needs Python 3.11"
    )
    def test_toml_spec(self, tmp_path):
        path = tmp_path / "sweep.toml"
        path.write_text(
            'experiment = "convergence"\n'
            "jobs = 1\n"
            "[params]\n"
            "n_players = 3\n"
            "[grid]\n"
            "seed = [1, 2]\n"
        )
        spec = load_spec(path)
        assert spec.name == "sweep"  # file stem default
        assert spec.base_params == {"n_players": 3}

    def test_missing_file_and_bad_suffix(self, tmp_path):
        with pytest.raises(CampaignError):
            load_spec(tmp_path / "absent.json")
        path = tmp_path / "spec.yaml"
        path.write_text("experiment: table1")
        with pytest.raises(CampaignError):
            load_spec(path)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(CampaignError):
            load_spec(path)


class TestExpansion:
    def test_grid_times_zip_ordering(self):
        spec = spec_from_dict(
            {
                "experiment": "table1",
                "grid": {"a": [1, 2], "b": [10, 20]},
                "zip": {"c": [100, 200]},
            }
        )
        tasks = expand_tasks(spec)
        assert spec.n_tasks == len(tasks) == 8
        assert [t.params for t in tasks[:3]] == [
            {"a": 1, "b": 10, "c": 100},
            {"a": 1, "b": 10, "c": 200},
            {"a": 1, "b": 20, "c": 100},
        ]
        assert [t.index for t in tasks] == list(range(8))

    def test_expansion_is_deterministic(self):
        spec = spec_from_dict(TINY)
        first = [t.digest for t in expand_tasks(spec)]
        second = [t.digest for t in expand_tasks(spec)]
        assert first == second

    @pytest.mark.parametrize(
        "policy,expected",
        [
            ("fixed", [7, 7, 7]),
            ("sequential", [7, 8, 9]),
        ],
    )
    def test_seed_policies(self, policy, expected):
        spec = spec_from_dict(
            {
                "experiment": "table1",
                "grid": {"x": [1, 2, 3]},
                "seeds": {"parameter": "seed", "base": 7, "policy": policy},
            }
        )
        assert [t.params["seed"] for t in expand_tasks(spec)] == expected

    def test_spawn_policy_is_deterministic_and_distinct(self):
        spec = spec_from_dict(
            {
                "experiment": "table1",
                "grid": {"x": [1, 2, 3]},
                "seeds": {"parameter": "seed", "base": 7, "policy": "spawn"},
            }
        )
        seeds_a = [t.params["seed"] for t in expand_tasks(spec)]
        seeds_b = [t.params["seed"] for t in expand_tasks(spec)]
        assert seeds_a == seeds_b
        assert len(set(seeds_a)) == 3


class TestExecution:
    def test_second_run_is_served_entirely_from_store(self, store):
        spec = spec_from_dict(TINY)
        first = run_campaign(spec, store=store)
        assert first.executed == 2 and first.cached == 0 and first.complete
        second = run_campaign(spec, store=store)
        assert second.executed == 0 and second.cached == 2
        # bit-identical artefacts: the stored payload hashes are stable
        digests = [t.digest for t in expand_tasks(spec)]
        shas = [store.verify(d).result_sha256 for d in digests]
        fresh_store = ResultStore(store.root.parent / "fresh")
        run_campaign(spec, store=fresh_store)
        assert [
            fresh_store.verify(d).result_sha256 for d in digests
        ] == shas

    def test_force_reexecutes_despite_cache(self, store):
        spec = spec_from_dict(TINY)
        run_campaign(spec, store=store)
        forced = run_campaign(spec, store=store, force=True)
        assert forced.executed == 2 and forced.cached == 0

    def test_status_without_execution(self, store):
        spec = spec_from_dict(TINY)
        before = campaign_status(spec, store=store)
        assert before.pending == 2 and before.executed == 0
        assert store.find() == []  # status must not run anything
        run_campaign(spec, store=store)
        after = campaign_status(spec, store=store)
        assert after.pending == 0 and after.cached == 2

    def test_interrupt_mid_sweep_resumes_exactly(self, store, monkeypatch):
        spec = spec_from_dict(TINY)
        real_execute = engine_module._execute_task
        calls = []

        def flaky(task):
            if calls:  # second task: simulate SIGINT mid-sweep
                raise KeyboardInterrupt
            calls.append(task)
            return real_execute(task)

        monkeypatch.setattr(engine_module, "_execute_task", flaky)
        interrupted = run_campaign(spec, store=store)
        assert interrupted.interrupted
        assert interrupted.executed == 1 and interrupted.pending == 1
        monkeypatch.setattr(engine_module, "_execute_task", real_execute)
        resumed = run_campaign(spec, store=store)
        # the completed prefix is not recomputed
        assert resumed.cached == 1 and resumed.executed == 1
        assert resumed.complete

    def test_report_render_mentions_every_task(self, store):
        spec = spec_from_dict(TINY)
        report = run_campaign(spec, store=store)
        text = report.render()
        for task in expand_tasks(spec):
            assert task.digest[:12] in text


class TestCorruptCacheResume:
    """A corrupt stored object must be re-executed, not trusted."""

    def test_tampered_payload_demoted_to_pending_and_healed(self, store):
        spec = spec_from_dict(TINY)
        run_campaign(spec, store=store)
        victim = expand_tasks(spec)[0]
        store.result_path(victim.digest).write_text('{"forged": true}\n')

        status = campaign_status(spec, store=store)
        assert status.pending == 1 and status.cached == 1

        healed = run_campaign(spec, store=store)
        assert healed.executed == 1 and healed.cached == 1
        # the re-execution restored a verifiable object
        store.verify(victim.digest)

    def test_field_stripped_manifest_demoted_and_healed(self, store):
        spec = spec_from_dict(TINY)
        run_campaign(spec, store=store)
        victim = expand_tasks(spec)[1]
        path = store.manifest_path(victim.digest)
        data = json.loads(path.read_text())
        del data["result_sha256"]
        path.write_text(json.dumps(data))

        healed = run_campaign(spec, store=store)
        assert healed.executed == 1 and healed.cached == 1
        store.verify(victim.digest)

    def test_invalid_json_manifest_demoted_and_healed(self, store):
        spec = spec_from_dict(TINY)
        run_campaign(spec, store=store)
        victim = expand_tasks(spec)[0]
        store.manifest_path(victim.digest).write_text("{not json")

        healed = run_campaign(spec, store=store)
        assert healed.executed == 1 and healed.cached == 1
        store.verify(victim.digest)


class TestCampaignProfiles:
    def test_every_executed_task_gets_a_profile(self, store):
        from repro import obs

        spec = spec_from_dict(TINY)
        run_campaign(spec, store=store)
        for task in expand_tasks(spec):
            profile = store.load_profile(task.digest)
            assert profile["meta"]["experiment_id"] == "convergence"
            assert profile["meta"]["campaign"] == "tiny"
            assert profile["meta"]["task_index"] == task.index
            assert profile["digest"] == obs.profile_digest(profile)

    def test_cache_hit_miss_counters_recorded(self, store):
        from repro import obs

        spec = spec_from_dict(TINY)
        recorder = obs.MemoryRecorder()
        with obs.use_recorder(recorder):
            run_campaign(spec, store=store)   # 2 misses
            run_campaign(spec, store=store)   # 2 hits
        counters = obs.build_profile(recorder.events)["counters"]
        assert counters["store.cache|outcome=miss"] == 2
        assert counters["store.cache|outcome=hit"] == 2
