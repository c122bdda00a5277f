"""Unit tests for the coupled fixed-point solvers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bianchi.batched import collision_probabilities
from repro.bianchi.fixedpoint import solve_heterogeneous, solve_symmetric
from repro.bianchi.markov import transmission_probability
from repro.errors import ParameterError


class TestCollisionCoupling:
    def test_two_nodes(self):
        tau = np.array([0.1, 0.3])
        p = collision_probabilities(tau)
        assert p[0] == pytest.approx(0.3)
        assert p[1] == pytest.approx(0.1)

    def test_leave_one_out_product(self):
        tau = np.array([0.05, 0.1, 0.2, 0.4])
        p = collision_probabilities(tau)
        for i in range(4):
            others = np.delete(tau, i)
            assert p[i] == pytest.approx(1 - np.prod(1 - others), rel=1e-12)

    def test_handles_tau_one(self):
        tau = np.array([1.0, 0.2])
        p = collision_probabilities(tau)
        assert p[0] == pytest.approx(0.2)
        assert p[1] == pytest.approx(1.0)


class TestSymmetric:
    def test_satisfies_both_equations(self, params):
        for window, n in [(32, 5), (78, 5), (335, 20), (16, 50)]:
            sol = solve_symmetric(window, n, params.max_backoff_stage)
            assert sol.collision == pytest.approx(
                1 - (1 - sol.tau) ** (n - 1), rel=1e-9
            )
            assert sol.tau == pytest.approx(
                transmission_probability(
                    window, sol.collision, params.max_backoff_stage
                ),
                rel=1e-9,
            )

    def test_single_node_never_collides(self, params):
        sol = solve_symmetric(32, 1, params.max_backoff_stage)
        assert sol.collision == 0.0  # repro: noqa=REPRO003
        assert sol.tau == pytest.approx(2 / 33)

    def test_tau_decreasing_in_window(self, params):
        taus = [
            solve_symmetric(w, 10, params.max_backoff_stage).tau
            for w in (4, 16, 64, 256, 1024)
        ]
        assert all(a > b for a, b in zip(taus, taus[1:]))

    def test_collision_increasing_in_population(self, params):
        ps = [
            solve_symmetric(64, n, params.max_backoff_stage).collision
            for n in (2, 5, 10, 20, 50)
        ]
        assert all(a < b for a, b in zip(ps, ps[1:]))

    def test_residual_reported_small(self, params):
        sol = solve_symmetric(100, 10, params.max_backoff_stage)
        assert sol.residual < 1e-9

    def test_rejects_bad_inputs(self, params):
        with pytest.raises(ParameterError):
            solve_symmetric(0, 5, params.max_backoff_stage)
        with pytest.raises(ParameterError):
            solve_symmetric(32, 0, params.max_backoff_stage)


class TestHeterogeneous:
    def test_symmetric_profile_recovers_symmetric_solution(self, params):
        n, window = 6, 48
        hetero = solve_heterogeneous([window] * n, params.max_backoff_stage)
        sym = solve_symmetric(window, n, params.max_backoff_stage)
        np.testing.assert_allclose(hetero.tau, sym.tau, rtol=1e-6)
        np.testing.assert_allclose(hetero.collision, sym.collision, rtol=1e-6)

    def test_solution_satisfies_equations(self, params):
        windows = [16, 32, 64, 128, 256]
        sol = solve_heterogeneous(windows, params.max_backoff_stage)
        for i, window in enumerate(windows):
            others = np.delete(sol.tau, i)
            assert sol.collision[i] == pytest.approx(
                1 - np.prod(1 - others), rel=1e-8
            )
            assert sol.tau[i] == pytest.approx(
                transmission_probability(
                    window, sol.collision[i], params.max_backoff_stage
                ),
                rel=1e-8,
            )

    def test_lemma1_orderings(self, params):
        # Larger window -> smaller tau, larger p (Lemma 1's first half).
        windows = [10, 100, 1000]
        sol = solve_heterogeneous(windows, params.max_backoff_stage)
        assert sol.tau[0] > sol.tau[1] > sol.tau[2]
        assert sol.collision[0] < sol.collision[1] < sol.collision[2]

    def test_single_node(self, params):
        sol = solve_heterogeneous([32], params.max_backoff_stage)
        assert sol.collision[0] == 0.0  # repro: noqa=REPRO003
        assert sol.n_nodes == 1

    def test_warm_start_converges_to_same_point(self, params):
        windows = [20, 40, 80]
        cold = solve_heterogeneous(windows, params.max_backoff_stage)
        warm = solve_heterogeneous(
            windows,
            params.max_backoff_stage,
            initial_tau=[0.5, 0.5, 0.5],
        )
        np.testing.assert_allclose(cold.tau, warm.tau, rtol=1e-6)

    def test_extreme_heterogeneity(self, params):
        sol = solve_heterogeneous([1, 4096], params.max_backoff_stage)
        assert 0 < sol.tau[1] < sol.tau[0] < 1
        assert sol.residual < 1e-8

    def test_many_aggressive_nodes(self, params):
        sol = solve_heterogeneous([2] * 30, params.max_backoff_stage)
        assert np.all(sol.collision > 0.5)
        assert sol.residual < 1e-8

    def test_rejects_empty(self, params):
        with pytest.raises(ParameterError):
            solve_heterogeneous([], params.max_backoff_stage)

    def test_rejects_sub_one_window(self, params):
        with pytest.raises(ParameterError):
            solve_heterogeneous([32, 0.5], params.max_backoff_stage)

    def test_rejects_mismatched_warm_start(self, params):
        with pytest.raises(ParameterError):
            solve_heterogeneous(
                [32, 64], params.max_backoff_stage, initial_tau=[0.1]
            )
