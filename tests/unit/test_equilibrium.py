"""Unit tests for the Section V equilibrium analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bianchi.fixedpoint import solve_symmetric
from repro.errors import ConvergenceError, ParameterError
from repro.game.equilibrium import (
    analyze_equilibria,
    breakeven_window,
    efficient_window,
    is_symmetric_equilibrium,
    optimal_tau,
    q_function,
    window_for_tau,
)
from repro.game.utility import symmetric_utility_from_tau


class TestQFunction:
    def test_endpoints_match_lemma3(self, basic_times):
        # Q(0) > 0 and Q(1) = -(n-1) Tc < 0.
        for n in (2, 5, 20, 50):
            assert q_function(0.0, n, basic_times) > 0
            assert q_function(1.0, n, basic_times) == pytest.approx(
                -(n - 1) * basic_times.collision_us
            )

    def test_q_at_zero_is_sigma(self, basic_times):
        assert q_function(0.0, 10, basic_times) == pytest.approx(
            basic_times.idle_us
        )

    def test_strictly_decreasing_on_unit_interval(self, rts_times):
        taus = np.linspace(0, 1, 50)
        values = [q_function(t, 10, rts_times) for t in taus]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_bad_inputs(self, basic_times):
        with pytest.raises(ParameterError):
            q_function(1.5, 5, basic_times)
        with pytest.raises(ParameterError):
            q_function(0.5, 1, basic_times)


class TestOptimalTau:
    def test_root_of_q(self, basic_times):
        tau = optimal_tau(10, basic_times)
        assert q_function(tau, 10, basic_times) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_is_the_utility_maximizer(self, params, basic_times):
        # The Q-root must maximise the cost-free symmetric utility.
        optimize = pytest.importorskip("scipy.optimize")
        n = 10
        tau_star = optimal_tau(n, basic_times)
        direct = optimize.minimize_scalar(
            lambda t: -symmetric_utility_from_tau(
                t, n, params, basic_times, ignore_cost=True
            ),
            bounds=(1e-6, 0.5),
            method="bounded",
        )
        assert tau_star == pytest.approx(float(direct.x), abs=1e-5)

    def test_direct_method_agrees_without_cost(self, params, basic_times):
        via_q = optimal_tau(10, basic_times)
        via_direct = optimal_tau(
            10, basic_times, params=params, method="direct", ignore_cost=True
        )
        assert via_q == pytest.approx(via_direct, abs=1e-6)

    def test_direct_with_cost_is_more_conservative(self, params, basic_times):
        # Keeping the energy cost shifts the optimum to a smaller tau.
        free = optimal_tau(10, basic_times)
        costed = optimal_tau(
            10,
            basic_times,
            params=params,
            method="direct",
            ignore_cost=False,
        )
        assert costed < free

    def test_decreasing_in_population(self, basic_times):
        taus = [optimal_tau(n, basic_times) for n in (2, 5, 10, 20, 50)]
        assert all(a > b for a, b in zip(taus, taus[1:]))

    def test_small_tau_approximation(self, basic_times):
        # For large n, tau* ~= sqrt(2 sigma / (Tc n(n-1))).
        n = 50
        approx = np.sqrt(
            2
            * basic_times.idle_us
            / (basic_times.collision_us * n * (n - 1))
        )
        assert optimal_tau(n, basic_times) == pytest.approx(approx, rel=0.05)

    def test_direct_needs_params(self, basic_times):
        with pytest.raises(ParameterError):
            optimal_tau(10, basic_times, method="direct")

    def test_unknown_method(self, basic_times):
        with pytest.raises(ParameterError):
            optimal_tau(10, basic_times, method="bogus")


class TestWindowForTau:
    def test_inverts_symmetric_fixed_point(self, params):
        for window, n in [(30, 5), (120, 10), (500, 30)]:
            sol = solve_symmetric(window, n, params.max_backoff_stage)
            recovered = window_for_tau(sol.tau, n, params.max_backoff_stage)
            assert recovered == pytest.approx(window, rel=1e-9)

    def test_monotone_decreasing_in_tau(self, params):
        windows = [
            window_for_tau(t, 10, params.max_backoff_stage)
            for t in (0.005, 0.01, 0.05, 0.2)
        ]
        assert all(a > b for a, b in zip(windows, windows[1:]))

    def test_rejects_bad_tau(self, params):
        with pytest.raises(ParameterError):
            window_for_tau(0.0, 10, params.max_backoff_stage)
        with pytest.raises(ParameterError):
            window_for_tau(1.5, 10, params.max_backoff_stage)


class TestEfficientWindow:
    def test_paper_table2_values(self, params, basic_times):
        # Paper: 76 / 336 / 879. Our model (m=5, exact Q) is within a few
        # percent on the famously flat plateau.
        assert efficient_window(5, params, basic_times) == 78
        assert efficient_window(20, params, basic_times) == 335
        assert efficient_window(50, params, basic_times) == 848

    def test_paper_table3_values(self, params, rts_times):
        # Paper: 22 / 48 / 116. n=20 is exact; see EXPERIMENTS.md.
        assert efficient_window(5, params, rts_times) == 12
        assert efficient_window(20, params, rts_times) == 48
        assert efficient_window(50, params, rts_times) == 121

    def test_is_a_local_maximum(self, params, basic_times):
        n = 10
        star = efficient_window(n, params, basic_times)

        def utility(window):
            sol = solve_symmetric(window, n, params.max_backoff_stage)
            return symmetric_utility_from_tau(
                sol.tau, n, params, basic_times, ignore_cost=True
            )

        best = utility(star)
        assert best >= utility(star - 1)
        assert best >= utility(star + 1)

    def test_increasing_in_population(self, params, basic_times):
        values = [
            efficient_window(n, params, basic_times) for n in (3, 5, 10, 20)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rts_much_smaller_than_basic(self, params, basic_times, rts_times):
        for n in (5, 20):
            assert (
                efficient_window(n, params, rts_times)
                < efficient_window(n, params, basic_times) / 4
            )

    def test_with_cost_shifts_right(self, params, basic_times):
        free = efficient_window(10, params, basic_times, ignore_cost=True)
        costed = efficient_window(10, params, basic_times, ignore_cost=False)
        assert costed >= free


class TestBreakevenWindow:
    def test_default_cost_always_positive(self, params, basic_times):
        # With e = 0.01 and m = 5 the payoff never goes negative, so the
        # break-even window collapses to the bottom of the space.
        assert breakeven_window(10, params, basic_times) == params.cw_min

    def test_high_cost_creates_negative_region(self, basic_times, params):
        expensive = params.with_updates(cost=0.2)
        w0 = breakeven_window(50, expensive, basic_times)
        assert w0 > expensive.cw_min

        def payoff(window):
            sol = solve_symmetric(window, 50, expensive.max_backoff_stage)
            return symmetric_utility_from_tau(
                sol.tau, 50, expensive, basic_times
            )

        assert payoff(w0) > 0
        assert payoff(w0 - 1) <= 0

    def test_impossible_cost_raises(self, basic_times, params):
        # cost >= gain is rejected upstream; just below, a crowded
        # network with a tiny strategy space cannot break even.
        hopeless = params.with_updates(cost=0.99, cw_max=2)
        with pytest.raises(ConvergenceError):
            breakeven_window(50, hopeless, basic_times)


class TestAnalyzeEquilibria:
    def test_bundle_consistency(self, params, basic_times):
        analysis = analyze_equilibria(10, params, basic_times)
        assert analysis.window_breakeven <= analysis.window_star
        assert analysis.n_equilibria == (
            analysis.window_star - analysis.window_breakeven + 1
        )
        assert list(analysis.ne_windows) == list(
            range(analysis.window_breakeven, analysis.window_star + 1)
        )
        assert analysis.utility_at_star > 0
        assert 0 < analysis.tau_star < 1
        assert analysis.window_star_continuous == pytest.approx(
            analysis.window_star, rel=0.15
        )

    def test_is_symmetric_equilibrium(self, params, basic_times):
        analysis = analyze_equilibria(5, params, basic_times)
        assert is_symmetric_equilibrium(
            analysis.window_star, 5, params, basic_times, analysis=analysis
        )
        assert is_symmetric_equilibrium(
            analysis.window_breakeven, 5, params, basic_times, analysis=analysis
        )
        assert not is_symmetric_equilibrium(
            analysis.window_star + 1, 5, params, basic_times, analysis=analysis
        )
