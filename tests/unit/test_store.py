"""Unit tests for the content-addressed results store."""

from __future__ import annotations

import shutil
import subprocess

import numpy as np
import pytest

from repro.contracts import check_digest
from repro.errors import ContractError, IntegrityError, StoreError
from repro.store import (
    ResultStore,
    canonical_json,
    compute_digest,
    digest_material,
)
from repro.store.store import Manifest
import repro.store.store as store_module


@pytest.fixture()
def store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path / "store")


def _put(store, seed=1, experiment="convergence", payload=None, **extra):
    params = {"n_players": 3, "seed": seed, **extra}
    if payload is None:
        payload = {"seed": seed, "series": [1.0, 2.0, float(seed)]}
    return store.put(
        experiment, params, payload, rendered=f"run seed={seed}"
    )


class TestDigest:
    def test_deterministic_and_key_order_insensitive(self):
        a = compute_digest("table2", {"sizes": [5, 20], "seed": 3})
        b = compute_digest("table2", {"seed": 3, "sizes": [5, 20]})
        assert a == b
        check_digest(a)

    def test_numpy_and_python_scalars_agree(self):
        a = compute_digest("fig2", {"n_points": 40, "seed": 7})
        b = compute_digest(
            "fig2", {"n_points": np.int64(40), "seed": np.int64(7)}
        )
        assert a == b

    def test_different_params_different_digest(self):
        a = compute_digest("fig2", {"seed": 1})
        b = compute_digest("fig2", {"seed": 2})
        assert a != b

    def test_version_is_part_of_the_key(self):
        a = compute_digest("fig2", {"seed": 1}, version="1.0.0")
        b = compute_digest("fig2", {"seed": 1}, version="2.0.0")
        assert a != b

    def test_seed_material_defaults_to_seed_param(self):
        material = digest_material("fig2", {"seed": 9})
        assert material["seed"] == 9

    def test_canonical_json_is_sorted_and_compact(self):
        text = canonical_json({"b": 1, "a": [2, 3]})
        assert text == '{"a":[2,3],"b":1}'


class TestPutGet:
    def test_roundtrip(self, store):
        manifest = _put(store, seed=1)
        assert store.contains(manifest.digest)
        payload = store.load_result(manifest.digest)
        assert payload["series"] == [1.0, 2.0, 1.0]
        assert store.manifest(manifest.digest).rendered == "run seed=1"

    def test_manifest_provenance_fields(self, store):
        manifest = _put(store, seed=1)
        assert manifest.experiment_id == "convergence"
        assert manifest.numpy_version == np.__version__
        assert manifest.created_at  # ISO timestamp
        assert manifest.host
        check_digest(manifest.result_sha256, "result_sha256")

    def test_missing_digest_raises_store_error(self, store):
        with pytest.raises(StoreError):
            store.manifest("0" * 64)

    def test_malformed_digest_raises_contract_error(self, store):
        with pytest.raises(ContractError):
            store.contains("not-a-digest")

    def test_rejected_payload_types_do_not_corrupt(self, store):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            store.put("convergence", {"seed": 1}, object())
        assert store.find() == []


class TestProvenance:
    @pytest.fixture(autouse=True)
    def _fresh_process_sha(self):
        store_module._git_sha.cache_clear()
        yield
        store_module._git_sha.cache_clear()

    def test_puts_fork_git_once_per_process(self, store, monkeypatch):
        started = []
        popen_init = subprocess.Popen.__init__

        def counting_init(self, *args, **kwargs):
            started.append(args[0] if args else kwargs["args"])
            popen_init(self, *args, **kwargs)

        monkeypatch.setattr(subprocess.Popen, "__init__", counting_init)
        manifests = [_put(store, seed=seed) for seed in range(5)]
        assert started == [["git", "rev-parse", "HEAD"]]
        assert len({manifest.git_sha for manifest in manifests}) == 1

    def test_manifest_carries_head(self, store):
        head = None
        if shutil.which("git"):
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True
            )
            head = proc.stdout.strip() if proc.returncode == 0 else None
        manifest = _put(store, seed=1)
        assert manifest.git_sha == head
        assert store.manifest(manifest.digest).git_sha == head

    def test_manifest_sha_is_none_outside_git(self, store, tmp_path, monkeypatch):
        outside = tmp_path / "not-a-checkout"
        outside.mkdir()
        monkeypatch.chdir(outside)
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        monkeypatch.delenv("GIT_DIR", raising=False)
        manifest = _put(store, seed=1)
        assert manifest.git_sha is None
        assert store.manifest(manifest.digest).git_sha is None


class TestIntegrity:
    def test_tampered_result_fails_verification(self, store):
        manifest = _put(store, seed=1)
        store.result_path(manifest.digest).write_text('{"forged": true}\n')
        with pytest.raises(IntegrityError):
            store.load_result(manifest.digest)

    def test_unverified_read_is_possible_but_explicit(self, store):
        manifest = _put(store, seed=1)
        store.result_path(manifest.digest).write_text('{"forged": true}\n')
        assert store.load_result(manifest.digest, verify=False) == {
            "forged": True
        }

    def test_truncated_manifest_raises_integrity_error(self, store):
        manifest = _put(store, seed=1)
        store.manifest_path(manifest.digest).write_text('{"digest": ')
        with pytest.raises(IntegrityError):
            store.manifest(manifest.digest)

    def test_manifest_digest_mismatch_detected(self, store):
        a = _put(store, seed=1)
        b = _put(store, seed=2)
        text = store.manifest_path(a.digest).read_text()
        store.manifest_path(b.digest).write_text(text)
        with pytest.raises(IntegrityError):
            store.manifest(b.digest)

    def test_manifest_from_dict_requires_core_fields(self):
        with pytest.raises(IntegrityError):
            Manifest.from_dict({"digest": "0" * 64})


class TestQueries:
    def test_find_filters_by_experiment_and_params(self, store):
        _put(store, seed=1)
        _put(store, seed=2)
        _put(store, seed=3, experiment="fig2")
        assert len(store.find()) == 3
        assert len(store.find("convergence")) == 2
        hits = store.find("convergence", where={"seed": 2})
        assert len(hits) == 1 and hits[0]["params"]["seed"] == 2

    def test_latest_prefers_newest(self, store, monkeypatch):
        stamps = iter(
            ["2026-08-01T00:00:00+00:00", "2026-08-02T00:00:00+00:00"]
        )
        monkeypatch.setattr(store_module, "_utc_now", lambda: next(stamps))
        _put(store, seed=1)
        newest = _put(store, seed=2)
        assert store.latest("convergence")["digest"] == newest.digest

    def test_resolve_prefix(self, store):
        manifest = _put(store, seed=1)
        assert store.resolve(manifest.digest[:10]) == manifest.digest
        with pytest.raises(StoreError):
            store.resolve("ffffffffffff")

    def test_diff_reports_exactly_the_changed_axis(self, store):
        a = _put(store, seed=1)
        b = _put(store, seed=2)
        diff = store.diff(a.digest, b.digest)
        assert diff.param_changes == {"seed": (1, 2)}
        assert "seed" in diff.render()
        assert not diff.identical
        # results differ only where the seed leaked into the payload
        assert set(diff.result_changes) == {"seed", "series.2"}

    def test_diff_identical_runs(self, store):
        a = _put(store, seed=1)
        diff = store.diff(a.digest, a.digest)
        assert diff.identical
        assert "identical" in diff.render()


class TestMaintenance:
    def test_reindex_rebuilds_from_manifests(self, store):
        _put(store, seed=1)
        _put(store, seed=2)
        store.index_path.unlink()
        assert store.reindex() == 2
        assert len(store.find()) == 2

    def test_corrupt_index_is_repaired_on_read(self, store):
        _put(store, seed=1)
        store.index_path.write_text("not json")
        assert len(store.find()) == 1

    def test_gc_keep_latest_per_experiment(self, store, monkeypatch):
        stamps = iter(
            f"2026-08-0{day}T00:00:00+00:00" for day in (1, 2, 3, 4)
        )
        monkeypatch.setattr(store_module, "_utc_now", lambda: next(stamps))
        old = _put(store, seed=1)
        new = _put(store, seed=2)
        other = _put(store, seed=3, experiment="fig2")
        removed = store.gc(keep_latest=1)
        assert removed == [old.digest]
        assert store.contains(new.digest) and store.contains(other.digest)

    def test_gc_before_timestamp(self, store, monkeypatch):
        stamps = iter(
            ["2026-01-01T00:00:00+00:00", "2026-08-01T00:00:00+00:00"]
        )
        monkeypatch.setattr(store_module, "_utc_now", lambda: next(stamps))
        old = _put(store, seed=1)
        new = _put(store, seed=2)
        removed = store.gc(before="2026-06-01")
        assert removed == [old.digest]
        assert store.contains(new.digest)

    def test_gc_drops_incomplete_objects(self, store):
        manifest = _put(store, seed=1)
        orphan = store.object_dir("ab" * 32)
        orphan.mkdir(parents=True)
        (orphan / "result.json").write_text("{}\n")  # no manifest
        removed = store.gc()
        assert removed == ["ab" * 32]
        assert store.contains(manifest.digest)

    def test_remove_is_idempotent(self, store):
        manifest = _put(store, seed=1)
        assert store.remove(manifest.digest)
        assert not store.remove(manifest.digest)
        assert store.find() == []


class TestCheckDigestContract:
    @pytest.mark.parametrize(
        "bad",
        ["", "zz" * 32, "A" * 64, "0" * 63, "0" * 65, 12345, None],
    )
    def test_rejects_non_digests(self, bad):
        with pytest.raises(ContractError):
            check_digest(bad)

    def test_accepts_sha256_hex(self):
        assert check_digest("0123456789abcdef" * 4) == "0123456789abcdef" * 4


class TestIntegrityErrorNamesFile:
    """IntegrityError messages must name the offending file on disk."""

    def test_invalid_json_manifest_names_manifest_path(self, store):
        manifest = _put(store, seed=1)
        path = store.manifest_path(manifest.digest)
        path.write_text("{not json")
        with pytest.raises(IntegrityError, match="manifest at .*manifest.json"):
            store.manifest(manifest.digest)

    def test_field_stripped_manifest_names_manifest_path(self, store):
        import json as json_module

        manifest = _put(store, seed=1)
        path = store.manifest_path(manifest.digest)
        data = json_module.loads(path.read_text())
        del data["result_sha256"]
        path.write_text(json_module.dumps(data))
        with pytest.raises(IntegrityError) as excinfo:
            store.manifest(manifest.digest)
        assert str(path) in str(excinfo.value)
        assert "result_sha256" in str(excinfo.value)

    def test_tampered_result_names_result_path(self, store):
        manifest = _put(store, seed=1)
        path = store.result_path(manifest.digest)
        path.write_text('{"forged": true}\n')
        with pytest.raises(IntegrityError) as excinfo:
            store.verify(manifest.digest)
        assert str(path) in str(excinfo.value)

    def test_missing_result_names_result_path(self, store):
        manifest = _put(store, seed=1)
        path = store.result_path(manifest.digest)
        path.unlink()
        with pytest.raises(IntegrityError) as excinfo:
            store.verify(manifest.digest)
        assert str(path) in str(excinfo.value)

    def test_corrupt_profile_names_profile_path(self, store):
        manifest = _put(store, seed=1)
        path = store.profile_path(manifest.digest)
        path.write_text("[1, 2")
        with pytest.raises(IntegrityError) as excinfo:
            store.load_profile(manifest.digest)
        assert str(path) in str(excinfo.value)


class TestProfiles:
    def test_put_and_load_profile(self, store):
        from repro import obs

        recorder = obs.MemoryRecorder()
        with obs.use_recorder(recorder):
            obs.inc("bianchi.solves", 2, kind="heterogeneous")
        profile = obs.build_profile(recorder.events, meta={"experiment_id": "x"})
        params = {"n_players": 3, "seed": 1}
        manifest = store.put(
            "convergence",
            params,
            {"seed": 1},
            rendered="r",
            profile=profile,
        )
        assert store.has_profile(manifest.digest)
        loaded = store.load_profile(manifest.digest)
        assert loaded["digest"] == profile["digest"]
        assert loaded["counters"] == {"bianchi.solves|kind=heterogeneous": 2}

    def test_put_without_profile_has_none(self, store):
        manifest = _put(store, seed=1)
        assert not store.has_profile(manifest.digest)
        with pytest.raises(StoreError, match="no run profile"):
            store.load_profile(manifest.digest)

    def test_non_object_profile_rejected_on_read(self, store):
        manifest = _put(store, seed=1)
        store.profile_path(manifest.digest).write_text("[1, 2]")
        with pytest.raises(IntegrityError, match="JSON object"):
            store.load_profile(manifest.digest)

    def test_remove_deletes_profile_too(self, store):
        manifest = _put(store, seed=1)
        store.profile_path(manifest.digest).write_text("{}")
        store.remove(manifest.digest)
        assert not store.has_profile(manifest.digest)
