"""Unit tests for the mean-field type-distribution solver.

The load-bearing property: for integer type counts the mean-field
solution IS the per-node heterogeneous fixed point - tau per type must
match `solve_heterogeneous_batch` on the expanded population to <= 1e-9
(the ISSUE 9 acceptance anchor), and the O(K) channel statistics must
match the O(n) `stage_outcome` utilities.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bianchi.batched import solve_heterogeneous_batch
from repro.bianchi.meanfield import (
    MeanFieldSolution,
    expand_types,
    mean_field_statistics,
    solve_mean_field,
    solve_mean_field_batch,
    type_collision_probabilities,
)
from repro.errors import ParameterError
from repro.game.utility import stage_outcome
from repro.phy.parameters import AccessMode, PhyParameters
from repro.phy.timing import slot_times

MAX_STAGE = 5


def _expand_tau(tau_types: np.ndarray, counts: np.ndarray) -> np.ndarray:
    return np.repeat(tau_types, counts.astype(np.int64))


class TestShapes:
    def test_batch_solution_shapes(self):
        windows = np.array([[32.0, 64.0], [16.0, 256.0]])
        counts = np.array([[5.0, 5.0], [3.0, 7.0]])
        batch = solve_mean_field_batch(windows, counts, MAX_STAGE)
        assert isinstance(batch, MeanFieldSolution)
        assert batch.n_instances == 2
        assert batch.n_types == 2
        assert batch.tau.shape == (2, 2)
        assert batch.collision.shape == (2, 2)
        assert batch.residual.shape == (2,)
        assert batch.iterations.shape == (2,)
        assert batch.newton.shape == (2,)
        np.testing.assert_allclose(batch.population, [10.0, 10.0])

    def test_1d_input_promoted_to_single_instance(self):
        batch = solve_mean_field([32.0, 64.0], [4.0, 6.0], MAX_STAGE)
        assert batch.tau.shape == (1, 2)
        assert batch.n_instances == 1

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ParameterError):
            solve_mean_field_batch([[32.0, 64.0]], [[5.0]], MAX_STAGE)

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ParameterError):
            solve_mean_field([32.0, 64.0], [0.0, 5.0], MAX_STAGE)
        with pytest.raises(ParameterError):
            solve_mean_field([32.0, 64.0], [-1.0, 5.0], MAX_STAGE)

    def test_fractional_counts_accepted(self):
        batch = solve_mean_field([32.0, 64.0], [0.25, 19.75], MAX_STAGE)
        assert np.all(batch.collision[0] >= 0.0)
        assert float(batch.residual[0]) <= 1e-8

    def test_rejects_invalid_windows(self):
        with pytest.raises(Exception):
            solve_mean_field([0.5, 64.0], [5.0, 5.0], MAX_STAGE)

    def test_rejects_bad_max_stage_and_warm_start(self):
        windows, counts = [[32.0, 64.0]], [[5.0, 5.0]]
        with pytest.raises(ParameterError, match="max_stage"):
            solve_mean_field_batch(windows, counts, -1)
        with pytest.raises(ParameterError, match="broadcast"):
            solve_mean_field_batch(
                windows, counts, MAX_STAGE, initial_tau=[0.1, 0.1, 0.1]
            )
        # A NaN warm start must fail at once, not after the whole budget.
        with pytest.raises(ParameterError, match="finite"):
            solve_mean_field_batch(
                windows, counts, MAX_STAGE, initial_tau=[0.1, np.nan]
            )


class TestExactAgreement:
    """Integer counts: mean-field == exact per-node fixed point."""

    @pytest.mark.parametrize(
        "windows, counts",
        [
            ([32.0], [10]),
            ([32.0, 64.0], [5, 5]),
            ([16.0, 64.0, 512.0], [3, 12, 5]),
            ([8.0, 32.0, 128.0, 1024.0], [1, 9, 6, 4]),
        ],
    )
    def test_tau_matches_expanded_exact_solve(self, windows, counts):
        w = np.asarray(windows, dtype=float)
        n = np.asarray(counts, dtype=np.int64)
        mf = solve_mean_field(w, n.astype(float), MAX_STAGE)
        exact = solve_heterogeneous_batch(
            expand_types(w, n)[None, :], MAX_STAGE
        )
        np.testing.assert_allclose(
            _expand_tau(mf.tau[0], n), exact.tau[0], rtol=0, atol=1e-9
        )
        np.testing.assert_allclose(
            _expand_tau(mf.collision[0], n),
            exact.collision[0],
            rtol=0,
            atol=1e-9,
        )

    def test_duplicate_types_agree_with_merged_type(self):
        merged = solve_mean_field([32.0, 64.0], [10.0, 5.0], MAX_STAGE)
        split = solve_mean_field(
            [32.0, 32.0, 64.0], [4.0, 6.0, 5.0], MAX_STAGE
        )
        np.testing.assert_allclose(
            split.tau[0][:2],
            [merged.tau[0][0]] * 2,
            rtol=0,
            atol=1e-11,
        )
        np.testing.assert_allclose(
            split.tau[0][2], merged.tau[0][1], rtol=0, atol=1e-11
        )

    def test_symmetric_population_matches_symmetric_solver(self):
        from repro.bianchi.fixedpoint import solve_symmetric

        mf = solve_mean_field([32.0], [20.0], MAX_STAGE)
        sym = solve_symmetric(32.0, 20, MAX_STAGE)
        assert abs(mf.tau[0][0] - sym.tau) <= 1e-10

    def test_million_node_population_converges(self):
        windows = np.array(
            [[16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 48.0]]
        )
        counts = np.full((1, 8), 125_000.0)
        mf = solve_mean_field_batch(windows, counts, MAX_STAGE)
        assert float(mf.population[0]) == 1_000_000.0  # repro: noqa=REPRO003
        assert float(mf.residual[0]) <= 1e-8
        # Congestion this heavy drives collision probabilities near 1.
        assert np.all(mf.collision[0] > 0.99)


class TestCoupling:
    def test_leave_one_out_against_direct_product(self):
        tau = np.array([0.02, 0.05, 0.002])
        counts = np.array([3.0, 2.0, 4.0])
        p = type_collision_probabilities(tau, counts)
        for k in range(3):
            loo = counts.copy()
            loo[k] -= 1.0
            expected = 1.0 - np.prod((1.0 - tau) ** loo)
            assert abs(p[k] - expected) < 1e-14

    def test_empty_types_rejected(self):
        with pytest.raises(ParameterError):
            type_collision_probabilities(
                np.zeros((1, 0)), np.zeros((1, 0))
            )


class TestSinglePopulation:
    def test_lone_node_never_collides(self):
        mf = solve_mean_field([32.0], [1.0], MAX_STAGE)
        assert mf.collision[0][0] == 0.0  # repro: noqa=REPRO003
        assert abs(mf.tau[0][0] - 2.0 / (1.0 + 32.0)) < 1e-12


class TestExpandTypes:
    def test_expansion_order_and_length(self):
        vec = expand_types(np.array([32.0, 64.0]), np.array([2, 3]))
        np.testing.assert_allclose(
            vec, [32.0, 32.0, 64.0, 64.0, 64.0]
        )

    def test_rejects_fractional_counts(self):
        with pytest.raises(ParameterError):
            expand_types(np.array([32.0]), np.array([2.5]))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ParameterError):
            expand_types(np.array([32.0, 64.0]), np.array([2]))


class TestStatistics:
    def test_matches_exact_stage_outcome(self):
        params = PhyParameters()
        times = slot_times(params, AccessMode.BASIC)
        w = np.array([32.0, 64.0, 512.0])
        n = np.array([5, 3, 2])
        stats = mean_field_statistics(
            w, n.astype(float), params.max_backoff_stage, params, times
        )
        exact = stage_outcome(expand_types(w, n), params, times)
        np.testing.assert_allclose(
            _expand_tau(stats.type_utilities, n),
            exact.utilities,
            rtol=0,
            atol=1e-12,
        )

    def test_probabilities_are_consistent(self):
        params = PhyParameters()
        times = slot_times(params, AccessMode.BASIC)
        stats = mean_field_statistics(
            [32.0, 64.0],
            [10.0, 10.0],
            params.max_backoff_stage,
            params,
            times,
        )
        assert 0.0 < stats.p_idle < 1.0
        assert abs(stats.p_idle + stats.p_transmission - 1.0) < 1e-12
        assert 0.0 < stats.p_success_slot < stats.p_transmission
        assert 0.0 < stats.throughput < 1.0
        assert stats.expected_slot_us > 0.0

    def test_ignore_cost_raises_utilities(self):
        params = PhyParameters()
        times = slot_times(params, AccessMode.BASIC)
        with_cost = mean_field_statistics(
            [32.0], [10.0], params.max_backoff_stage, params, times
        )
        without = mean_field_statistics(
            [32.0],
            [10.0],
            params.max_backoff_stage,
            params,
            times,
            ignore_cost=True,
        )
        assert without.type_utilities[0] > with_cost.type_utilities[0]


class TestConvergenceControls:
    def test_newton_fallback_reaches_fixed_point(self):
        # A starvation-tight budget forces the Newton path; the answer
        # must still match the converged Anderson solve.
        free = solve_mean_field([32.0, 256.0], [8.0, 12.0], MAX_STAGE)
        forced = solve_mean_field_batch(
            [[32.0, 256.0]],
            [[8.0, 12.0]],
            MAX_STAGE,
            max_iterations=2,
        )
        assert bool(forced.newton[0])
        np.testing.assert_allclose(
            forced.tau, free.tau, rtol=0, atol=1e-9
        )

    def test_warm_start_converges_faster(self):
        cold = solve_mean_field([32.0, 64.0], [10.0, 10.0], MAX_STAGE)
        warm = solve_mean_field_batch(
            [[32.0, 64.0]],
            [[10.0, 10.0]],
            MAX_STAGE,
            initial_tau=cold.tau[0],
        )
        assert int(warm.iterations[0]) <= int(cold.iterations[0])
        np.testing.assert_allclose(
            warm.tau, cold.tau, rtol=0, atol=1e-10
        )
