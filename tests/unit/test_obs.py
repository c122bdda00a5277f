"""Unit tests for the observability layer and its CLI surface."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro import obs
from repro.bianchi.fixedpoint import solve_symmetric
from repro.cli import main
from repro.errors import ParameterError, StoreError
from repro.experiments import run_experiment
from repro.experiments.parallel import parallel_map
from repro.store import ResultStore


# ----------------------------------------------------------------------
# Recorder plumbing
# ----------------------------------------------------------------------
def test_null_recorder_is_default_and_disabled() -> None:
    assert obs.get_recorder().enabled is False
    assert obs.enabled() is False
    # Instrumentation is a no-op without a recorder.
    obs.inc("x")
    obs.gauge_set("y", 1.0)
    obs.observe("z", 2)
    with obs.span("nothing"):
        pass
    assert obs.current_span_id() is None


def test_use_recorder_restores_previous() -> None:
    first = obs.MemoryRecorder()
    second = obs.MemoryRecorder()
    with obs.use_recorder(first):
        assert obs.get_recorder() is first
        with obs.use_recorder(second):
            assert obs.get_recorder() is second
        assert obs.get_recorder() is first
    assert obs.enabled() is False


def test_use_recorder_restores_on_exception() -> None:
    with pytest.raises(RuntimeError):
        with obs.use_recorder(obs.MemoryRecorder()):
            raise RuntimeError("boom")
    assert obs.enabled() is False


def test_jsonl_recorder_streams_lines() -> None:
    handle = io.StringIO()
    with obs.use_recorder(obs.JsonlRecorder(handle)):
        obs.inc("hits", 2, outcome="hit")
        with obs.span("work", step=1):
            pass
    lines = [json.loads(line) for line in handle.getvalue().splitlines()]
    assert [event["type"] for event in lines] == [
        "counter",
        "span_start",
        "span_end",
    ]
    assert lines[0]["value"] == 2


def _spanned_task(value: int) -> int:
    with obs.span("task", value=value):
        obs.inc("task.calls")
        return value * 2


def _without_timings(events: list) -> list:
    return [
        {k: v for k, v in event.items() if k not in ("t_mono", "duration_s")}
        for event in events
    ]


def test_jsonl_recorder_merges_worker_events() -> None:
    memory = obs.MemoryRecorder()
    with obs.use_recorder(memory):
        parallel_map(_spanned_task, [1, 2, 3])
    handle = io.StringIO()
    with obs.use_recorder(obs.JsonlRecorder(handle)):
        assert parallel_map(_spanned_task, [1, 2, 3]) == [2, 4, 6]
    streamed = obs.jsonl_to_events(handle.getvalue())
    obs.validate_span_events(streamed)
    assert _without_timings(streamed) == _without_timings(memory.events)
    starts = [event for event in streamed if event["type"] == "span_start"]
    (mapped,) = [event for event in starts if event["name"] == "parallel.map"]
    tasks = [event for event in starts if event["name"] == "task"]
    assert [task["parent_id"] for task in tasks] == [mapped["span_id"]] * 3
    assert len({task["span_id"] for task in tasks}) == 3


def test_fig3_streams_under_jsonl_recorder() -> None:
    memory = obs.MemoryRecorder()
    with obs.use_recorder(memory):
        run_experiment("fig3", sizes=(3,), n_points=10)
    handle = io.StringIO()
    with obs.use_recorder(obs.JsonlRecorder(handle)):
        run_experiment("fig3", sizes=(3,), n_points=10)
    streamed = obs.jsonl_to_events(handle.getvalue())
    obs.validate_span_events(streamed)
    assert _without_timings(streamed) == _without_timings(memory.events)
    assert obs.build_profile(streamed)["counters"]["parallel.tasks"] > 0


def test_ingest_remaps_span_ids_and_reparents() -> None:
    parent = obs.MemoryRecorder()
    with obs.use_recorder(parent):
        with obs.span("outer"):
            outer_id = obs.current_span_id()
            worker = obs.MemoryRecorder()
            with obs.use_recorder(worker):
                with obs.span("inner"):
                    with obs.span("leaf"):
                        pass
            parent.ingest(worker.events, parent_id=outer_id)
    obs.validate_span_events(parent.events)
    starts = {
        e["name"]: e for e in parent.events if e["type"] == "span_start"
    }
    assert starts["inner"]["parent_id"] == starts["outer"]["span_id"]
    assert starts["leaf"]["parent_id"] == starts["inner"]["span_id"]
    ids = [e["span_id"] for e in parent.events if e["type"] == "span_start"]
    assert len(ids) == len(set(ids))


# ----------------------------------------------------------------------
# Spans and attributes
# ----------------------------------------------------------------------
def test_span_records_attrs_and_duration() -> None:
    recorder = obs.MemoryRecorder()
    with obs.use_recorder(recorder):
        with obs.span("solve", instance=np.int64(3), w=np.float64(1.5)):
            pass
    start, end = recorder.events
    assert start["attrs"] == {"instance": 3, "w": 1.5}
    assert end["status"] == "ok"
    assert end["duration_s"] >= 0.0


def test_span_error_status_and_reraise() -> None:
    recorder = obs.MemoryRecorder()
    with obs.use_recorder(recorder):
        with pytest.raises(ValueError, match="bad"):
            with obs.span("solve"):
                raise ValueError("bad")
    end = recorder.events[-1]
    assert end["status"] == "error"
    assert "ValueError" in end["error"]


def test_jsonable_handles_numpy_and_nonfinite() -> None:
    from repro.obs.span import jsonable

    # Exact on purpose: jsonable must pass the value through bit-for-bit.
    assert jsonable(np.float64(2.5)) == 2.5  # repro: noqa=REPRO003
    assert jsonable(np.array([1, 2])) == [1, 2]
    assert jsonable(float("nan")) is None
    assert jsonable(float("inf")) is None
    assert jsonable({"a": (1, 2)}) == {"a": [1, 2]}
    assert isinstance(jsonable(object()), str)


def test_validate_span_events_rejects_malformed() -> None:
    good_start = {"type": "span_start", "span_id": 1, "parent_id": None, "name": "a"}
    good_end = {"type": "span_end", "span_id": 1, "parent_id": None, "name": "a"}
    with pytest.raises(ParameterError, match="still open"):
        obs.validate_span_events([good_start])
    with pytest.raises(ParameterError, match="no span open"):
        obs.validate_span_events([good_end])
    with pytest.raises(ParameterError, match="does not match"):
        obs.validate_span_events(
            [good_start, {**good_end, "name": "b"}]
        )
    with pytest.raises(ParameterError, match="duplicate"):
        obs.validate_span_events(
            [good_start, good_end, good_start, good_end]
        )


# ----------------------------------------------------------------------
# Profiles
# ----------------------------------------------------------------------
def _sample_events():
    recorder = obs.MemoryRecorder()
    with obs.use_recorder(recorder):
        with obs.span("solve"):
            obs.inc("bianchi.solves", 3, kind="heterogeneous")
            obs.observe_many("bianchi.iterations", [5, 9, 17], kind="heterogeneous")
            obs.gauge_set("sim.slots_per_sec", 1e6)
    return recorder.events


def test_build_profile_sections() -> None:
    profile = obs.build_profile(_sample_events(), meta={"experiment_id": "x"})
    assert profile["counters"] == {
        "bianchi.solves|kind=heterogeneous": 3
    }
    hist = profile["histograms"]["bianchi.iterations|kind=heterogeneous"]
    assert hist["count"] == 3
    assert hist["sum"] == 31
    assert hist["min"] == 5 and hist["max"] == 17
    assert hist["buckets"] == {"le_8": 1, "le_16": 1, "le_32": 1}
    assert profile["spans"]["solve"]["count"] == 1
    assert profile["meta"]["experiment_id"] == "x"
    assert profile["digest"] == obs.profile_digest(profile)


def test_profile_digest_excludes_timings_and_gauges() -> None:
    events = _sample_events()
    profile_a = obs.build_profile(events, meta={"run": 1})
    # Mutate every wall-clock field and the gauges; digest must not move.
    patched = []
    for event in events:
        event = dict(event)
        if event["type"] == "span_end":
            event["duration_s"] = 123.0
            event["t_mono"] = 9e9
        if event["type"] == "gauge":
            event["value"] = -1.0
        patched.append(event)
    profile_b = obs.build_profile(patched, meta={"run": 2})
    assert profile_a["digest"] == profile_b["digest"]
    assert obs.diff_profiles(profile_a, profile_b).identical


def test_profile_diff_reports_counter_change() -> None:
    base = _sample_events()
    extra = base + [
        {
            "type": "counter",
            "name": "bianchi.fallbacks",
            "labels": {"method": "newton"},
            "value": 1,
        }
    ]
    diff = obs.diff_profiles(obs.build_profile(base), obs.build_profile(extra))
    assert not diff.identical
    assert "bianchi.fallbacks|method=newton" in diff.counter_changes
    assert "bianchi.fallbacks" in diff.render()


def test_unknown_events_are_dropped_not_fatal() -> None:
    profile = obs.build_profile([{"type": "mystery"}, {"no": "type"}])
    assert profile["meta"]["dropped_events"] == 2


def test_summarize_profile_mentions_all_sections() -> None:
    text = obs.summarize_profile(obs.build_profile(_sample_events()))
    assert "bianchi.solves|kind=heterogeneous" in text
    assert "bianchi.iterations" in text
    assert "excluded from digest" in text
    assert "solve" in text


# ----------------------------------------------------------------------
# Instrumented pipeline: determinism across worker counts
# ----------------------------------------------------------------------
def _profiled_run(jobs: int) -> dict:
    recorder = obs.MemoryRecorder()
    with obs.use_recorder(recorder):
        run_experiment(
            "table2", sizes=(5, 10), slots_per_point=4000, seed=0, jobs=jobs
        )
    obs.validate_span_events(recorder.events)
    return obs.build_profile(recorder.events)


def test_profile_digest_identical_across_jobs() -> None:
    serial = _profiled_run(1)
    pooled = _profiled_run(2)
    assert serial["digest"] == pooled["digest"], obs.diff_profiles(
        serial, pooled
    ).render()
    # The deterministic sections are byte-identical, not just same-hash.
    for section in ("counters", "histograms"):
        assert serial[section] == pooled[section]


def test_symmetric_memo_hits_profile_like_misses() -> None:
    # The second call is a memo hit; it must record the same events.
    profiles = []
    for _ in range(2):
        recorder = obs.MemoryRecorder()
        with obs.use_recorder(recorder):
            solve_symmetric(41.5, 7, 5)
        profiles.append(obs.build_profile(recorder.events))
    assert profiles[0]["counters"]["bianchi.solves|kind=symmetric-grid"] == 1
    assert profiles[0]["digest"] == profiles[1]["digest"], obs.diff_profiles(
        profiles[0], profiles[1]
    ).render()


def test_solver_and_sim_counters_present() -> None:
    profile = _profiled_run(1)
    counters = profile["counters"]
    assert any(key.startswith("bianchi.solves") for key in counters)
    assert any(key.startswith("sim.slots|") for key in counters)
    assert counters["parallel.tasks"] > 0
    assert any(
        key.startswith("bianchi.iterations") for key in profile["histograms"]
    )
    assert profile["spans"]["experiment"]["count"] == 1


# ----------------------------------------------------------------------
# Store + CLI integration
# ----------------------------------------------------------------------
def test_run_stores_profile_and_obs_cli(tmp_path, capsys) -> None:
    store_dir = str(tmp_path / "store")
    assert main(["run", "fig2", "--quick", "--store", store_dir]) == 0
    capsys.readouterr()

    store = ResultStore(store_dir)
    entry = store.latest("fig2")
    assert entry is not None
    digest = entry["digest"]
    assert store.has_profile(digest)
    profile = store.load_profile(digest)
    assert profile["meta"]["experiment_id"] == "fig2"

    assert main(["obs", "summary", "--store", store_dir]) == 0
    summary = capsys.readouterr().out
    assert profile["digest"] in summary

    assert (
        main(["obs", "diff", digest, digest, "--store", store_dir]) == 0
    )
    assert "identical" in capsys.readouterr().out

    out_file = tmp_path / "profile.json"
    assert (
        main(
            ["obs", "export", digest, "-o", str(out_file), "--store", store_dir]
        )
        == 0
    )
    capsys.readouterr()
    assert json.loads(out_file.read_text())["digest"] == profile["digest"]

    # A path reference works wherever a digest does.
    assert main(["obs", "summary", str(out_file), "--store", store_dir]) == 0
    assert profile["digest"] in capsys.readouterr().out


def test_obs_cli_errors_cleanly_on_empty_store(tmp_path, capsys) -> None:
    code = main(["obs", "summary", "--store", str(tmp_path / "empty")])
    assert code == 1
    assert "no run profiles" in capsys.readouterr().err


def test_repro_obs_env_disables_recorder(tmp_path, monkeypatch, capsys) -> None:
    monkeypatch.setenv("REPRO_OBS", "0")
    store_dir = str(tmp_path / "store")
    assert main(["run", "fig2", "--quick", "--store", store_dir]) == 0
    capsys.readouterr()
    store = ResultStore(store_dir)
    entry = store.latest("fig2")
    assert entry is not None
    assert not store.has_profile(entry["digest"])
    with pytest.raises(StoreError, match="no run profile"):
        store.load_profile(entry["digest"])
