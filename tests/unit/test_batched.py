"""Unit tests for the batched fixed-point solver (`repro.bianchi.batched`).

Shapes, per-instance convergence bookkeeping, the Newton fallback, the
`method` reporting on the scalar wrapper, and the vectorized
`transmission_probability` / `collision_probabilities` primitives.  The
scalar damped loop of `tests/fixedpoint_oracle.py` is the reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bianchi.batched import (
    BatchedFixedPoint,
    SymmetricGridSolution,
    collision_probabilities,
    solve_heterogeneous_batch,
    solve_symmetric_grid,
)
from repro.bianchi.fixedpoint import solve_heterogeneous, solve_symmetric
from repro.bianchi.markov import transmission_probability
from repro.errors import ConvergenceError, ParameterError
from tests.fixedpoint_oracle import solve_heterogeneous_reference

MAX_STAGE = 5


class TestShapes:
    def test_batch_solution_shapes(self):
        windows = np.array(
            [[32.0, 32.0, 64.0], [16.0, 128.0, 256.0]], dtype=float
        )
        batch = solve_heterogeneous_batch(windows, MAX_STAGE)
        assert isinstance(batch, BatchedFixedPoint)
        assert batch.n_instances == 2
        assert batch.n_nodes == 3
        assert batch.tau.shape == (2, 3)
        assert batch.collision.shape == (2, 3)
        assert batch.residual.shape == (2,)
        assert batch.iterations.shape == (2,)
        assert batch.newton.shape == (2,)

    def test_1d_input_promoted_to_single_instance(self):
        batch = solve_heterogeneous_batch(
            np.array([32.0, 64.0]), MAX_STAGE
        )
        assert batch.tau.shape == (1, 2)

    def test_grid_solution_shapes(self):
        grid = solve_symmetric_grid(
            np.array([16.0, 32.0, 64.0, 128.0]), 10, MAX_STAGE
        )
        assert isinstance(grid, SymmetricGridSolution)
        assert grid.tau.shape == (4,)
        assert grid.collision.shape == (4,)
        assert grid.residual.shape == (4,)
        assert grid.iterations.shape == (4,)
        assert grid.n_nodes == 10

    def test_validation_errors(self):
        with pytest.raises(ParameterError):
            solve_heterogeneous_batch(np.zeros((2, 2, 2)), MAX_STAGE)
        with pytest.raises(ParameterError):
            solve_heterogeneous_batch(np.empty((0, 3)), MAX_STAGE)
        with pytest.raises(ParameterError):
            solve_symmetric_grid(np.array([[16.0]]), 5, MAX_STAGE)
        with pytest.raises(ParameterError):
            solve_symmetric_grid(np.array([]), 5, MAX_STAGE)
        with pytest.raises(ParameterError):
            solve_symmetric_grid(np.array([16.0]), 0, MAX_STAGE)

    def test_batch_rejects_bad_max_stage_and_warm_start(self):
        windows = np.array([[16.0, 32.0, 64.0]])
        with pytest.raises(ParameterError, match="max_stage"):
            solve_heterogeneous_batch(windows, -1)
        with pytest.raises(ParameterError, match="broadcast"):
            solve_heterogeneous_batch(windows, MAX_STAGE, initial_tau=[0.1, 0.1])
        # A NaN warm start must fail at once, not after the whole budget.
        with pytest.raises(ParameterError, match="finite"):
            solve_heterogeneous_batch(
                windows, MAX_STAGE, initial_tau=[0.1, np.nan, 0.1]
            )

    def test_grid_rejects_negative_max_stage(self):
        for n_nodes in (1, 20):
            with pytest.raises(ParameterError, match="max_stage"):
                solve_symmetric_grid(np.array([16.0, 32.0]), n_nodes, -1)


class TestConvergenceBookkeeping:
    def test_iteration_counts_are_per_instance(self):
        # An easy instance and a hard (congested) one converge at
        # different sweeps; the mask bookkeeping must keep them apart.
        easy = [1024.0] * 4
        hard = [2.0] * 4
        batch = solve_heterogeneous_batch(
            np.array([easy, hard]), MAX_STAGE
        )
        alone_easy = solve_heterogeneous_batch(
            np.array([easy]), MAX_STAGE
        )
        alone_hard = solve_heterogeneous_batch(
            np.array([hard]), MAX_STAGE
        )
        assert int(batch.iterations[0]) == int(alone_easy.iterations[0])
        assert int(batch.iterations[1]) == int(alone_hard.iterations[0])
        assert int(batch.iterations[0]) != int(batch.iterations[1])

    def test_symmetric_grid_iterations_match_scalar(self):
        windows = np.array([32.0, 335.0, 1024.0])
        grid = solve_symmetric_grid(windows, 20, MAX_STAGE)
        for index, window in enumerate(windows):
            scalar = solve_symmetric(float(window), 20, MAX_STAGE)
            assert int(grid.iterations[index]) == scalar.iterations
            assert float(grid.tau[index]) == pytest.approx(
                scalar.tau, abs=0.0
            )

    def test_residuals_are_small(self):
        batch = solve_heterogeneous_batch(
            np.array([[2.0, 16.0, 1024.0]]), MAX_STAGE
        )
        assert float(batch.residual[0]) < 1e-8


class TestNewtonFallback:
    def test_starved_anderson_falls_back_to_newton(self):
        windows = np.array([[4.0, 8.0, 512.0]])
        starved = solve_heterogeneous_batch(
            windows, MAX_STAGE, max_iterations=2
        )
        assert bool(starved.newton[0])
        reference = solve_heterogeneous_reference(
            [4.0, 8.0, 512.0], MAX_STAGE
        )
        assert float(np.max(np.abs(starved.tau[0] - reference.tau))) <= 1e-9

    def test_normal_run_does_not_need_newton(self):
        batch = solve_heterogeneous_batch(
            np.array([[16.0, 32.0, 64.0]]), MAX_STAGE
        )
        assert not bool(batch.newton[0])


class TestMethodReporting:
    def test_scalar_wrapper_reports_anderson(self):
        sol = solve_heterogeneous([16.0, 32.0], MAX_STAGE)
        assert sol.method == "anderson"
        assert sol.iterations >= 1

    def test_single_node_reports_closed_form(self):
        sol = solve_heterogeneous([32.0], MAX_STAGE)
        assert sol.method == "closed-form"
        assert sol.iterations == 0

    def test_newton_fallback_reported(self):
        sol = solve_heterogeneous(
            [4.0, 8.0, 512.0], MAX_STAGE, max_iterations=2
        )
        assert sol.method == "newton"

    def test_reference_solver_reports_damped(self):
        sol = solve_heterogeneous_reference([16.0, 32.0], MAX_STAGE)
        assert sol.method == "damped"
        assert sol.iterations >= 1

    def test_reference_solver_raises_when_budget_runs_out(self):
        with pytest.raises(ConvergenceError):
            solve_heterogeneous_reference(
                [4.0, 8.0, 512.0], MAX_STAGE, max_iterations=2
            )


class TestCollisionProbabilities:
    def test_matches_naive_leave_one_out(self):
        rng = np.random.default_rng(2007)
        tau = rng.uniform(0.01, 0.5, size=(3, 6))
        p = collision_probabilities(tau)
        for b in range(3):
            for i in range(6):
                expected = 1.0 - np.prod(np.delete(1.0 - tau[b], i))
                assert float(p[b, i]) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_certain_transmitter(self):
        # One tau == 1 drives everyone ELSE's collision probability to
        # (the clamp of) 1 without poisoning that node's own entry.
        tau = np.array([[1.0, 0.2, 0.3]])
        p = collision_probabilities(tau)
        assert float(p[0, 1]) == pytest.approx(1.0, abs=1e-12)
        assert float(p[0, 2]) == pytest.approx(1.0, abs=1e-12)
        expected_self = 1.0 - 0.8 * 0.7
        assert float(p[0, 0]) == pytest.approx(expected_self, abs=1e-12)

    def test_all_zero_tau(self):
        p = collision_probabilities(np.zeros((2, 4)))
        np.testing.assert_array_equal(p, np.zeros((2, 4)))


class TestVectorizedTransmissionProbability:
    def test_scalar_and_array_paths_agree(self):
        windows = np.array([2.0, 16.0, 335.0, 1024.0])
        collisions = np.array([0.0, 0.1, 0.5, 0.999])
        vectorized = transmission_probability(windows, collisions, MAX_STAGE)
        for index in range(windows.size):
            scalar = transmission_probability(
                float(windows[index]), float(collisions[index]), MAX_STAGE
            )
            assert float(vectorized[index]) == pytest.approx(scalar, abs=0.0)

    def test_scalar_path_returns_float(self):
        out = transmission_probability(32.0, 0.25, MAX_STAGE)
        assert isinstance(out, float)

    def test_broadcasting_shapes(self):
        windows = np.full((2, 3), 32.0)
        collisions = np.full((2, 3), 0.25)
        out = transmission_probability(windows, collisions, MAX_STAGE)
        assert out.shape == (2, 3)
