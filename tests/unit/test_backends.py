"""Unit tests for the pluggable compute-backend layer."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import backends
from repro.backends import (
    ComputeBackend,
    available_backends,
    backend_names,
    default_backend_name,
    get_backend,
    get_namespace,
    register_backend,
    resolve_backend,
    set_default_backend,
    use_backend,
)
from repro.backends.base import SimChunkState
from repro.backends.cnative_backend import (
    ENV_CACHE_DIR,
    CNativeBackend,
    _find_compiler,
    load_kernels,
)
from repro.backends.numpy_backend import NumpyBackend
from repro.bianchi.batched import solve_heterogeneous_batch
from repro.campaign.spec import spec_from_dict
from repro.errors import BackendError, CampaignError
from repro.experiments.parallel import parallel_map
from repro.phy.parameters import AccessMode, default_parameters
from repro.sim.vectorized import run_batch

CALENDAR_NAMES = [
    name for name in ("python", "cnative", "numba")
    if name in available_backends()
]
ACCELERATED = [name for name in CALENDAR_NAMES if name != "python"]
REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")
needs_compiler = pytest.mark.skipif(
    _find_compiler() is None, reason="no C compiler"
)


@pytest.fixture(scope="module")
def params():
    return default_parameters()


@pytest.fixture(autouse=True)
def _clean_default():
    """Never leak a default-backend override between tests.

    The CLI's ``--backend`` also exports ``REPRO_BACKEND`` for worker
    processes, so the variable is restored too.
    """
    saved = os.environ.pop(backends.ENV_BACKEND, None)
    set_default_backend(None)
    yield
    set_default_backend(None)
    os.environ.pop(backends.ENV_BACKEND, None)
    if saved is not None:
        os.environ[backends.ENV_BACKEND] = saved


class _Unavailable(ComputeBackend):
    name = "test-unavailable"

    def available(self) -> bool:
        return False

    def availability_note(self) -> str:
        return "synthetic test backend, never available"


@pytest.fixture
def unavailable_backend():
    register_backend(_Unavailable())
    yield "test-unavailable"
    backends._REGISTRY.pop("test-unavailable", None)


# ------------------------------------------------------------------ registry
class TestRegistry:
    def test_builtin_backends_registered(self):
        names = backend_names()
        for expected in ("numpy", "numba", "cnative", "python"):
            assert expected in names

    def test_numpy_and_python_always_available(self):
        names = available_backends()
        assert "numpy" in names
        assert "python" in names

    def test_unknown_name_raises_listing_registered(self):
        with pytest.raises(BackendError, match="registered:"):
            get_backend("definitely-not-a-backend")

    def test_reference_flags(self):
        numpy_backend = get_backend("numpy")
        assert numpy_backend.matches_numpy is True
        assert numpy_backend.deterministic is True
        for name in CALENDAR_NAMES:
            assert get_backend(name).matches_numpy is False
            assert get_backend(name).deterministic is True


# ---------------------------------------------------------------- precedence
class TestSelection:
    def test_builtin_default(self, monkeypatch):
        monkeypatch.delenv(backends.ENV_BACKEND, raising=False)
        assert default_backend_name() == "numpy"

    def test_env_overrides_builtin(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_BACKEND, "python")
        assert default_backend_name() == "python"
        assert resolve_backend().name == "python"

    def test_set_default_overrides_env(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_BACKEND, "python")
        set_default_backend("numpy")
        assert default_backend_name() == "numpy"

    def test_explicit_name_overrides_default(self):
        set_default_backend("python")
        assert resolve_backend("numpy").name == "numpy"

    def test_use_backend_restores(self):
        assert default_backend_name() == "numpy"
        with use_backend("python"):
            assert default_backend_name() == "python"
        assert default_backend_name() == "numpy"

    def test_set_default_validates_immediately(self):
        with pytest.raises(BackendError):
            set_default_backend("nope")

    def test_unavailable_falls_back_with_warning(self, unavailable_backend):
        with pytest.warns(RuntimeWarning, match="unavailable"):
            backend = resolve_backend(unavailable_backend)
        assert backend.name == "numpy"

    def test_fallback_false_raises(self, unavailable_backend):
        with pytest.raises(BackendError, match="unavailable"):
            resolve_backend(unavailable_backend, fallback=False)


# ------------------------------------------------------------------ numpy ref
class TestNumpyReference:
    def test_explicit_numpy_backend_bit_identical_to_default(self, params):
        base = run_batch(
            [[16, 32, 64]] * 2, params, AccessMode.BASIC,
            n_slots=3_000, seed=42,
        )
        explicit = run_batch(
            [[16, 32, 64]] * 2, params, AccessMode.BASIC,
            n_slots=3_000, seed=42, backend="numpy",
        )
        assert base.backend == explicit.backend == "numpy"
        np.testing.assert_array_equal(base.attempts, explicit.attempts)
        np.testing.assert_array_equal(base.successes, explicit.successes)
        np.testing.assert_array_equal(base.tau, explicit.tau)

    def test_backend_instance_accepted(self, params):
        result = run_batch(
            [32] * 4, params, AccessMode.BASIC,
            n_slots=1_000, seed=1, backend=get_backend("numpy"),
        )
        assert result.backend == "numpy"


# ------------------------------------------------- compiled numpy replay
class _LoopBackend(NumpyBackend):
    """The numpy loop alone: the reference the compiled replay must match."""

    name = "numpy-loop"

    def _compiled_for(self, windows, max_stage):
        return None


@pytest.fixture(scope="module")
def compiled():
    backend = NumpyBackend()
    note = backend.availability_note()
    if "compiled kernel in use" not in note:
        pytest.skip(note)
    return backend


_RESULT_FIELDS = (
    "attempts", "successes", "idle_slots", "success_slots",
    "collision_slots", "elapsed_us",
)
_STATE_FIELDS = (
    "stage", "counter", "attempts", "successes", "busy_count", "slots_done",
)


def _assert_same_batches(reference, candidate):
    for field in _RESULT_FIELDS:
        np.testing.assert_array_equal(
            getattr(reference, field), getattr(candidate, field)
        )
    if reference.streaming is not None:
        for name in ("tau", "collision", "throughput"):
            mine = getattr(candidate.streaming, name)
            theirs = getattr(reference.streaming, name)
            np.testing.assert_array_equal(mine.mean, theirs.mean)
            np.testing.assert_array_equal(mine.variance(), theirs.variance())


def _run_chunks(backend, windows, max_stage, targets, seed):
    """Drive ``sim_chunk`` directly; returns the state and the RNG state."""
    windows = np.asarray(windows, dtype=np.int64)
    rng = np.random.default_rng(seed)
    state = SimChunkState.allocate(*windows.shape, rng)
    for target in targets:
        backend.sim_chunk(windows, max_stage, target, state)
    return state, rng.bit_generator.state


def _assert_same_chunks(compiled, windows, max_stage, targets, seed=0):
    reference, reference_rng = _run_chunks(
        _LoopBackend(), windows, max_stage, targets, seed
    )
    state, rng_state = _run_chunks(compiled, windows, max_stage, targets, seed)
    for field in _STATE_FIELDS:
        np.testing.assert_array_equal(
            getattr(reference, field), getattr(state, field)
        )
    assert rng_state == reference_rng
    return state


class TestNumpyCompiled:
    @pytest.mark.parametrize("mode", list(AccessMode))
    @pytest.mark.parametrize("stats_interval", [None, 700])
    def test_bit_identical_to_loop(self, compiled, params, mode, stats_interval):
        windows = np.repeat([24, 32, 48, 64], 3)[:, np.newaxis].repeat(6, 1)
        kwargs = dict(n_slots=6_000, seed=8, stats_interval=stats_interval)
        _assert_same_batches(
            run_batch(windows, params, mode, backend=_LoopBackend(), **kwargs),
            run_batch(windows, params, mode, backend=compiled, **kwargs),
        )

    @pytest.mark.parametrize(
        "make_seed",
        [
            lambda: 1234,
            lambda: np.random.SeedSequence(99),
            lambda: np.random.default_rng(5),
        ],
        ids=["int", "seed-sequence", "generator"],
    )
    def test_every_seed_kind(self, compiled, params, make_seed):
        windows = [[16, 32, 64, 128]] * 3
        seeds = [make_seed(), make_seed()]
        runs = [
            run_batch(
                windows, params, AccessMode.BASIC,
                n_slots=4_000, seed=seed, backend=backend,
            )
            for seed, backend in zip(seeds, (_LoopBackend(), compiled))
        ]
        _assert_same_batches(*runs)
        if isinstance(seeds[0], np.random.Generator):
            assert (
                seeds[0].bit_generator.state == seeds[1].bit_generator.state
            )

    def test_bounds_near_2_31_exercise_lemire_rejection(self, compiled):
        # Lane 1 (bound 2**31 + 1, about half of all 32-bit draws
        # rejected) has twice the events of lane 0, so half of its
        # redraws fall in the tail, where Generator.integers draws.
        state = _assert_same_chunks(
            compiled, [[2**32 - 1] * 2, [2**31 + 1] * 2], 0, [500 * 2**31]
        )
        tail_events = state.busy_count[1] - state.busy_count[0]
        assert tail_events > 200

    @pytest.mark.parametrize("max_stage", [0, 3])
    def test_window_one_at_stage_zero_draws_nothing(self, compiled, max_stage):
        _assert_same_chunks(compiled, [[1, 1, 5]], max_stage, [3_000])
        _assert_same_chunks(compiled, [[1], [7]], max_stage, [2_000, 5_000])

    @pytest.mark.parametrize(
        "windows", [[[40]], [[16, 32, 48, 64, 80]], [[9], [30], [70]]],
        ids=["batch-1-n-1", "batch-1", "n-1"],
    )
    def test_single_lane_and_single_node(self, compiled, params, windows):
        kwargs = dict(n_slots=5_000, seed=21)
        _assert_same_batches(
            run_batch(windows, params, backend=_LoopBackend(), **kwargs),
            run_batch(windows, params, backend=compiled, **kwargs),
        )

    def test_uniform_block_refills(self, compiled):
        # Tiny windows make nearly every slot busy: ~16 uniforms per
        # fast-path round against a 65,536-uniform block.
        state = _assert_same_chunks(compiled, [[4] * 8] * 16, 5, [20_000])
        assert state.attempts.sum() > 4 * (1 << 16)

    def test_bounds_from_2_32_take_the_loop(self, compiled):
        assert compiled._compiled_for(np.array([[2**31]]), 1) is None
        assert compiled._compiled_for(np.array([[2**31 - 1]]), 1) is not None
        _assert_same_chunks(
            compiled, [[2**33 + 5] * 2, [2**32 + 1] * 2], 0, [300 * 2**32]
        )

    def test_import_builds_nothing(self, tmp_path):
        cache = tmp_path / "cache"
        env = dict(os.environ, PYTHONPATH=REPO_SRC, **{ENV_CACHE_DIR: str(cache)})
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"],
            env=env, check=True, timeout=120,
        )
        assert not cache.exists() or not any(cache.iterdir())


# ------------------------------------------------------- kernel build cache
_LOAD = (
    "from repro.backends.cnative_backend import load_kernels\n"
    "load_kernels().repro_numpy_chunk\n"
)


@needs_compiler
class TestKernelCache:
    def test_two_processes_build_into_one_empty_cache(self, tmp_path):
        cache = tmp_path / "cache"
        env = dict(os.environ, PYTHONPATH=REPO_SRC, **{ENV_CACHE_DIR: str(cache)})
        builders = [
            subprocess.Popen(
                [sys.executable, "-c", _LOAD], env=env,
                stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        for builder in builders:
            _out, err = builder.communicate(timeout=240)
            assert builder.returncode == 0, err
        assert [path.suffix for path in cache.iterdir()] == [".so"]
        assert cache.stat().st_mode & 0o077 == 0

    def test_build_prunes_other_revisions_only(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        cache.mkdir(mode=0o700)
        stale = [
            cache / "repro_kernels_0123456789abcdef.so",
            cache / "repro_kernels_0123456789abcdef.c",
        ]
        for path in stale:
            path.write_text("from an older source revision")
        in_flight = cache / ".build-other" / "repro_kernels.c"
        in_flight.parent.mkdir()
        in_flight.write_text("another process's build")
        monkeypatch.setenv(ENV_CACHE_DIR, str(cache))

        load_kernels()
        kept = list(cache.glob("repro_kernels_*"))
        assert len(kept) == 1 and kept[0].suffix == ".so"
        assert kept[0] not in stale
        assert in_flight.is_file()

        # A plain load (the object is cached) prunes nothing.
        for path in stale:
            path.write_text("from an older source revision")
        load_kernels()
        assert all(path.is_file() for path in stale)

    def test_world_writable_cache_is_refused(self, tmp_path, monkeypatch, params):
        cache = tmp_path / "cache"
        cache.mkdir()
        cache.chmod(0o777)
        monkeypatch.setenv(ENV_CACHE_DIR, str(cache))
        cnative = CNativeBackend()
        assert not cnative.available()
        assert "group- or world-writable" in cnative.availability_note()
        numpy_backend = NumpyBackend()
        kwargs = dict(n_slots=3_000, seed=4)
        _assert_same_batches(
            run_batch([[16, 48]] * 2, params, backend=_LoopBackend(), **kwargs),
            run_batch([[16, 48]] * 2, params, backend=numpy_backend, **kwargs),
        )
        note = numpy_backend.availability_note()
        assert "numpy loop in use" in note and "world-writable" in note
        assert not any(cache.iterdir())

    def test_symlinked_cache_is_refused(self, tmp_path, monkeypatch):
        target = tmp_path / "real"
        target.mkdir(mode=0o700)
        (tmp_path / "link").symlink_to(target)
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "link"))
        cnative = CNativeBackend()
        assert not cnative.available()
        assert "is a symlink" in cnative.availability_note()


# ------------------------------------------------------- calendar equivalence
class TestCalendarBackends:
    @pytest.mark.parametrize("name", ACCELERATED)
    def test_bit_identical_to_python_backend(self, params, name):
        kwargs = dict(n_slots=4_000, seed=17)
        anchor = run_batch(
            [[16, 32, 64, 128]] * 2, params, AccessMode.BASIC,
            backend="python", **kwargs,
        )
        candidate = run_batch(
            [[16, 32, 64, 128]] * 2, params, AccessMode.BASIC,
            backend=name, **kwargs,
        )
        np.testing.assert_array_equal(anchor.attempts, candidate.attempts)
        np.testing.assert_array_equal(anchor.successes, candidate.successes)
        np.testing.assert_array_equal(anchor.tau, candidate.tau)

    @pytest.mark.parametrize("name", CALENDAR_NAMES)
    def test_chunking_does_not_change_results(self, params, name):
        single = run_batch(
            [[32] * 6] * 2, params, AccessMode.BASIC,
            n_slots=5_000, seed=23, backend=name,
        )
        chunked = run_batch(
            [[32] * 6] * 2, params, AccessMode.BASIC,
            n_slots=5_000, seed=23, backend=name, stats_interval=700,
        )
        np.testing.assert_array_equal(single.attempts, chunked.attempts)
        np.testing.assert_array_equal(single.tau, chunked.tau)

    def test_python_backend_statistically_matches_numpy(self, params):
        n_slots = 40_000
        reference = run_batch(
            [[32] * 8] * 2, params, AccessMode.BASIC,
            n_slots=n_slots, seed=5,
        )
        candidate = run_batch(
            [[32] * 8] * 2, params, AccessMode.BASIC,
            n_slots=n_slots, seed=5, backend="python",
        )
        ref_tau = float(reference.tau.mean())
        cand_tau = float(candidate.tau.mean())
        assert abs(cand_tau - ref_tau) / ref_tau < 0.1
        assert (
            abs(float(candidate.throughput.mean())
                - float(reference.throughput.mean()))
            < 0.05
        )


# ---------------------------------------------------------------- fixed point
class TestFixedPointBackends:
    @pytest.mark.parametrize(
        "name",
        [n for n in CALENDAR_NAMES
         if get_backend(n).supports_fixed_point],
    )
    def test_tau_within_1e9_of_numpy(self, name):
        rng = np.random.default_rng(3)
        windows = rng.integers(8, 256, size=(20, 15)).astype(float)
        reference = solve_heterogeneous_batch(windows, 5, backend="numpy")
        candidate = solve_heterogeneous_batch(windows, 5, backend=name)
        assert np.max(np.abs(candidate.tau - reference.tau)) <= 1e-9

    def test_numpy_path_unchanged_without_native_solver(self):
        windows = np.full((3, 4), 32.0)
        solution = solve_heterogeneous_batch(windows, 5, backend="numpy")
        assert solution.tau.shape == (3, 4)
        assert bool(np.all(solution.residual <= 1e-8))


# -------------------------------------------------------------- orchestration
def _report_backend(_task):
    return default_backend_name()


class TestPlumbing:
    def test_parallel_map_pins_backend(self):
        assert parallel_map(_report_backend, [0, 1], backend="python") == [
            "python", "python",
        ]

    def test_parallel_map_leaves_default_alone(self):
        assert parallel_map(_report_backend, [0]) == ["numpy"]

    def test_campaign_spec_accepts_registered_backend(self):
        spec = spec_from_dict(
            {"experiment": "table2", "backend": "python"}, name="s"
        )
        assert spec.backend == "python"

    def test_campaign_spec_rejects_unknown_backend(self):
        with pytest.raises(CampaignError, match="unknown compute backend"):
            spec_from_dict(
                {"experiment": "table2", "backend": "nope"}, name="s"
            )

    def test_campaign_spec_rejects_non_string_backend(self):
        with pytest.raises(CampaignError, match="backend"):
            spec_from_dict({"experiment": "table2", "backend": 3}, name="s")

    def test_get_namespace_defaults_to_numpy(self):
        assert get_namespace(np.zeros(3), None) is np

    def test_result_records_backend_name(self, params):
        result = run_batch(
            [32] * 3, params, AccessMode.BASIC,
            n_slots=500, seed=1, backend="python",
        )
        assert result.backend == "python"


# ------------------------------------------------------------------------ CLI
class TestCli:
    def test_backends_subcommand_lists_registry(self, capsys):
        from repro.cli import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "numpy" in out
        assert "python" in out
        numpy_line = next(
            line for line in out.splitlines() if line[2:].startswith("numpy ")
        )
        assert numpy_line.endswith(get_backend("numpy").availability_note())
        assert (
            "compiled kernel in use" in numpy_line
            or "numpy loop in use: " in numpy_line
        )

    def test_backend_flag_installs_default(self, capsys):
        from repro.cli import main

        try:
            assert main(["backends", "--backend", "python"]) == 0
            out = capsys.readouterr().out
            assert "python" in out
        finally:
            set_default_backend(None)

    def test_unknown_backend_flag_fails_cleanly(self, capsys):
        from repro.cli import main

        assert main(["backends", "--backend", "nope"]) == 1
        assert "unknown compute backend" in capsys.readouterr().err
