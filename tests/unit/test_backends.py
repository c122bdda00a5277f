"""Unit tests for the simulator kernel: the numpy loop and its replay."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.backends import default_backend_name, kernel_note
from repro.backends import numpy_backend
from repro.backends.cnative_backend import (
    ENV_CACHE_DIR,
    LazyKernels,
    _find_compiler,
    load_kernels,
)
from repro.backends.numpy_backend import SimChunkState, sim_chunk
from repro.bianchi.batched import solve_heterogeneous_batch
from repro.campaign.spec import spec_from_dict
from repro.errors import CampaignError
from repro.experiments.parallel import parallel_map
from repro.phy.parameters import AccessMode, default_parameters
from repro.sim.vectorized import run_batch

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")
needs_compiler = pytest.mark.skipif(
    _find_compiler() is None, reason="no C compiler"
)


@pytest.fixture(scope="module")
def params():
    return default_parameters()


# ----------------------------------------------------------------- selection
class TestSelection:
    """Nothing selects the kernel; its one name is numpy."""

    def test_builtin_default(self):
        assert default_backend_name() == "numpy"


# ------------------------------------------------- compiled numpy replay
@pytest.fixture(scope="module")
def compiled():
    note = kernel_note()
    if note != "compiled kernel in use":
        pytest.skip(note)


def _on_loop(monkeypatch, run):
    """``run()`` with the compiled replay out of reach: the numpy loop."""
    with monkeypatch.context() as patch:
        patch.setattr(numpy_backend, "_compiled_for", lambda *_: None)
        return run()


def _loop_and_compiled(monkeypatch, run):
    """``(run() on the loop, run() on the replay)``."""
    return _on_loop(monkeypatch, run), run()


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


def _run_chunks(windows, max_stage, targets, seed):
    """Drive ``sim_chunk`` directly; returns the state and the RNG state."""
    windows = np.asarray(windows, dtype=np.int64)
    rng = np.random.default_rng(seed)
    state = SimChunkState.allocate(*windows.shape, rng)
    for target in targets:
        sim_chunk(windows, max_stage, target, state)
    return state, rng.bit_generator.state


def _assert_same_chunks(monkeypatch, windows, max_stage, targets, seed=0):
    (reference, reference_rng), (state, rng_state) = _loop_and_compiled(
        monkeypatch, lambda: _run_chunks(windows, max_stage, targets, seed)
    )
    for field in _STATE_FIELDS:
        np.testing.assert_array_equal(
            getattr(reference, field), getattr(state, field)
        )
    assert rng_state == reference_rng
    return state


class TestNumpyCompiled:
    @pytest.mark.parametrize("mode", list(AccessMode))
    @pytest.mark.parametrize("stats_interval", [None, 700])
    def test_bit_identical_to_loop(
        self, compiled, monkeypatch, params, mode, stats_interval
    ):
        windows = np.repeat([24, 32, 48, 64], 3)[:, np.newaxis].repeat(6, 1)
        kwargs = dict(n_slots=6_000, seed=8, stats_interval=stats_interval)
        _assert_same_batches(
            *_loop_and_compiled(
                monkeypatch, lambda: run_batch(windows, params, mode, **kwargs)
            )
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
    def test_every_seed_kind(self, compiled, monkeypatch, params, make_seed):
        seeds = iter([make_seed(), make_seed()])

        def run():
            seed = next(seeds)
            result = run_batch(
                [[16, 32, 64, 128]] * 3, params, AccessMode.BASIC,
                n_slots=4_000, seed=seed,
            )
            return result, seed

        (loop, loop_seed), (replay, replay_seed) = _loop_and_compiled(
            monkeypatch, run
        )
        _assert_same_batches(loop, replay)
        if isinstance(loop_seed, np.random.Generator):
            assert (
                loop_seed.bit_generator.state
                == replay_seed.bit_generator.state
            )

    def test_bounds_near_2_31_exercise_lemire_rejection(
        self, compiled, monkeypatch
    ):
        # Lane 1 (bound 2**31 + 1, about half of all 32-bit draws
        # rejected) has twice the events of lane 0, so half of its
        # redraws fall in the tail, where Generator.integers draws.
        state = _assert_same_chunks(
            monkeypatch, [[2**32 - 1] * 2, [2**31 + 1] * 2], 0, [500 * 2**31]
        )
        tail_events = state.busy_count[1] - state.busy_count[0]
        assert tail_events > 200

    @pytest.mark.parametrize("max_stage", [0, 3])
    def test_window_one_at_stage_zero_draws_nothing(
        self, compiled, monkeypatch, max_stage
    ):
        _assert_same_chunks(monkeypatch, [[1, 1, 5]], max_stage, [3_000])
        _assert_same_chunks(monkeypatch, [[1], [7]], max_stage, [2_000, 5_000])

    @pytest.mark.parametrize(
        "windows", [[[40]], [[16, 32, 48, 64, 80]], [[9], [30], [70]]],
        ids=["batch-1-n-1", "batch-1", "n-1"],
    )
    def test_single_lane_and_single_node(
        self, compiled, monkeypatch, params, windows
    ):
        _assert_same_batches(
            *_loop_and_compiled(
                monkeypatch,
                lambda: run_batch(windows, params, n_slots=5_000, seed=21),
            )
        )

    def test_uniform_block_refills(self, compiled, monkeypatch):
        # Tiny windows make nearly every slot busy: ~16 uniforms per
        # fast-path round against a 65,536-uniform block.
        state = _assert_same_chunks(monkeypatch, [[4] * 8] * 16, 5, [20_000])
        assert state.attempts.sum() > 4 * (1 << 16)

    def test_bounds_from_2_32_take_the_loop(self, compiled, monkeypatch):
        compiled_for = numpy_backend._compiled_for
        assert compiled_for(np.array([[2**31]]), 1) is None
        assert compiled_for(np.array([[2**31 - 1]]), 1) is not None
        _assert_same_chunks(
            monkeypatch, [[2**33 + 5] * 2, [2**32 + 1] * 2], 0, [300 * 2**32]
        )

    def test_import_builds_nothing(self, tmp_path):
        cache = tmp_path / "cache"
        env = dict(os.environ, PYTHONPATH=REPO_SRC, **{ENV_CACHE_DIR: str(cache)})
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"],
            env=env, check=True, timeout=120,
        )
        assert not cache.exists() or not any(cache.iterdir())

    def test_runtime_imports_neither_scipy_nor_networkx(self):
        # The runtime is numpy-only: the CLI and the solver paths that
        # used scipy or networkx must load neither.
        script = (
            "import sys\n"
            "import repro.cli\n"
            "from repro.bianchi.fixedpoint import solve_heterogeneous\n"
            "from repro.game.equilibrium import analyze_equilibria, efficient_window\n"
            "from repro.multihop.topology import random_topology\n"
            "from repro.phy.parameters import AccessMode, default_parameters\n"
            "from repro.phy.timing import slot_times\n"
            "params = default_parameters()\n"
            "times = slot_times(params, AccessMode.BASIC)\n"
            "efficient_window(5, params, times, ignore_cost=True)\n"
            "efficient_window(5, params, times, ignore_cost=False)\n"
            "analyze_equilibria(20, params, times)\n"
            "random_topology(30, require_connected=True).components()\n"
            "solve_heterogeneous([16.0, 32.0], 5)\n"
            "print(sorted(name for name in sys.modules\n"
            "             if name.split('.')[0] in ('scipy', 'networkx')))\n"
        )
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, check=True, timeout=120, capture_output=True, text=True,
        )
        assert done.stdout.strip() == "[]"


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
        monkeypatch.setattr(numpy_backend, "_KERNELS", LazyKernels())
        kwargs = dict(n_slots=3_000, seed=4)
        _assert_same_batches(
            _on_loop(monkeypatch, lambda: run_batch([[16, 48]] * 2, params, **kwargs)),
            run_batch([[16, 48]] * 2, params, **kwargs),
        )
        note = kernel_note()
        assert "numpy loop in use" in note and "world-writable" in note
        assert not any(cache.iterdir())

    def test_symlinked_cache_is_refused(self, tmp_path, monkeypatch):
        target = tmp_path / "real"
        target.mkdir(mode=0o700)
        (tmp_path / "link").symlink_to(target)
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "link"))
        monkeypatch.setattr(numpy_backend, "_KERNELS", LazyKernels())
        note = kernel_note()
        assert "numpy loop in use" in note and "is a symlink" in note
        assert not any(target.iterdir())


# ---------------------------------------------------------------- fixed point
class TestFixedPointBackends:
    def test_numpy_path_unchanged_without_native_solver(self):
        windows = np.full((3, 4), 32.0)
        solution = solve_heterogeneous_batch(windows, 5)
        assert solution.tau.shape == (3, 4)
        assert bool(np.all(solution.residual <= 1e-8))


# -------------------------------------------------------------- orchestration
def _report_backend(_task):
    return default_backend_name()


class TestPlumbing:
    def test_parallel_map_leaves_default_alone(self):
        assert parallel_map(_report_backend, [0]) == ["numpy"]

    def test_campaign_spec_rejects_unknown_backend(self):
        with pytest.raises(CampaignError, match="unknown campaign spec keys"):
            spec_from_dict(
                {"experiment": "table2", "backend": "cnative"}, name="s"
            )

    def test_campaign_spec_rejects_non_string_backend(self):
        with pytest.raises(CampaignError, match="'backend'"):
            spec_from_dict({"experiment": "table2", "backend": 3}, name="s")


# ------------------------------------------------------------------------ CLI
class TestCli:
    def test_backends_subcommand_lists_registry(self, capsys):
        from repro.cli import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert out == f"numpy: {kernel_note()}\n"
        assert (
            "compiled kernel in use" in out or "numpy loop in use: " in out
        )

    def test_unknown_backend_flag_fails_cleanly(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["run", "table2", "--backend", "cnative"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err
