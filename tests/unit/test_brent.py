"""Unit tests for the Brent root finder and bounded minimiser ports.

The oracle classes compare the ports with scipy, bit for bit, at the
tolerances :func:`repro.game.equilibrium.optimal_tau` uses; they skip
when scipy is not installed.  The rest runs on numpy alone.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConvergenceError, ParameterError
from repro.game._brent import BRENTQ_RTOL, brentq, minimize_bounded
from repro.game.equilibrium import optimal_tau, q_function
from repro.game.utility import symmetric_utility_from_tau
from repro.phy.parameters import AccessMode
from repro.phy.timing import SlotTimes, slot_times

#: The production tolerances and bracket of ``optimal_tau``.
XTOL = 1e-14
XATOL = 1e-12
LO, HI = 1e-9, 1.0 - 1e-9
SIZES = range(2, 201)


class TestBrentq:
    def test_finds_sqrt2(self):
        root = brentq(lambda x: x * x - 2.0, 0.0, 2.0, xtol=1e-15)
        assert abs(root - math.sqrt(2.0)) <= 1e-15 + BRENTQ_RTOL * root

    def test_decreasing_function(self):
        root = brentq(lambda x: 0.25 - x**3, 0.0, 1.0, xtol=1e-14)
        assert root == pytest.approx(0.25 ** (1 / 3), abs=1e-13)

    def test_exact_zero_at_an_end_returns_that_end(self):
        lo, hi = 0.0, 1.0
        assert brentq(lambda x: x - lo, lo, hi, xtol=1e-12) == lo
        assert brentq(lambda x: x - hi, lo, hi, xtol=1e-12) == hi

    def test_same_signs_rejected(self):
        with pytest.raises(ParameterError):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)

    def test_bad_tolerances_rejected(self):
        with pytest.raises(ParameterError):
            brentq(lambda x: x, -1.0, 1.0, xtol=0.0)
        with pytest.raises(ParameterError):
            brentq(lambda x: x, -1.0, 1.0, xtol=1e-12, rtol=1e-17)

    def test_nan_raises_convergence_error(self):
        with pytest.raises(ConvergenceError):
            brentq(lambda x: math.nan if x > 0.2 else 1.0 - x, 0.0, 1.0, xtol=1e-12)

    def test_iteration_budget(self):
        with pytest.raises(ConvergenceError):
            brentq(lambda x: math.exp(x) - 2.0, 0.0, 1.0, xtol=1e-14, maxiter=2)

    def test_iterates_stay_in_bracket(self):
        seen = []

        def f(x):
            seen.append(x)
            return math.tanh(50.0 * (x - 0.7)) + 0.01

        brentq(f, 0.1, 0.9, xtol=1e-14)
        assert all(0.1 <= x <= 0.9 for x in seen)


class TestMinimizeBounded:
    def test_interior_minimum(self):
        x = minimize_bounded(lambda t: (t - 0.3) ** 2, 0.0, 1.0, xatol=1e-12)
        assert x == pytest.approx(0.3, abs=1e-7)

    def test_minimum_at_the_bound(self):
        x = minimize_bounded(lambda t: t, 0.2, 1.0, xatol=1e-10)
        assert x == pytest.approx(0.2, abs=1e-7)
        assert x >= 0.2

    def test_bad_bounds_rejected(self):
        with pytest.raises(ParameterError):
            minimize_bounded(lambda t: t, 1.0, 0.0, xatol=1e-12)
        with pytest.raises(ParameterError):
            minimize_bounded(lambda t: t, 0.0, math.inf, xatol=1e-12)

    def test_nan_raises_convergence_error(self):
        with pytest.raises(ConvergenceError):
            minimize_bounded(lambda t: math.nan, 0.0, 1.0, xatol=1e-12)

    def test_evaluation_budget(self):
        with pytest.raises(ConvergenceError):
            minimize_bounded(lambda t: (t - 0.3) ** 2, 0.0, 1.0, xatol=1e-12,
                             maxiter=3)


@pytest.fixture(scope="module")
def optimize():
    return pytest.importorskip("scipy.optimize")


def _random_times(rng, mode):
    collision = float(rng.uniform(50.0, 5000.0))
    return SlotTimes(
        success_us=collision + float(rng.uniform(0.0, 500.0)),
        collision_us=collision,
        idle_us=float(rng.uniform(1.0, 100.0)),
        mode=mode,
    )


class TestScipyOracle:
    @pytest.mark.parametrize("mode", list(AccessMode))
    def test_q_root_matches_brentq(self, optimize, params, mode):
        times = slot_times(params, mode)
        for n in SIZES:
            expected = optimize.brentq(
                lambda t: q_function(t, n, times), LO, HI, xtol=XTOL
            )
            assert optimal_tau(n, times) == expected, n

    def test_q_root_matches_brentq_on_random_slot_times(self, optimize):
        rng = np.random.default_rng(2007)
        for k in range(100):
            times = _random_times(rng, list(AccessMode)[k % 2])
            n = int(rng.integers(2, 120))
            expected = optimize.brentq(
                lambda t: q_function(t, n, times), LO, HI, xtol=XTOL
            )
            assert optimal_tau(n, times) == expected, (n, times)

    @pytest.mark.parametrize("ignore_cost", [True, False])
    @pytest.mark.parametrize("mode", list(AccessMode))
    def test_direct_matches_minimize_scalar(
        self, optimize, params, mode, ignore_cost
    ):
        times = slot_times(params, mode)
        for n in SIZES:
            expected = optimize.minimize_scalar(
                lambda t: -symmetric_utility_from_tau(
                    t, n, params, times, ignore_cost=ignore_cost
                ),
                bounds=(LO, HI),
                method="bounded",
                options={"xatol": XATOL},
            )
            assert expected.success
            got = optimal_tau(
                n, times, params=params, method="direct",
                ignore_cost=ignore_cost,
            )
            assert got == float(expected.x), n

    def test_ports_match_on_generic_functions(self, optimize):
        rng = np.random.default_rng(11)
        for _ in range(50):
            shift, scale = rng.uniform(0.05, 0.95), rng.uniform(0.5, 40.0)

            def f(x):
                return math.tanh(scale * (shift - x)) + 0.1 * (shift - x) ** 3

            assert brentq(f, 0.0, 1.0, xtol=XTOL) == optimize.brentq(
                f, 0.0, 1.0, xtol=XTOL
            )

            def g(x):
                return math.cosh(scale * (x - shift)) + x

            reference = optimize.minimize_scalar(
                g, bounds=(0.0, 1.0), method="bounded",
                options={"xatol": XATOL},
            )
            assert minimize_bounded(g, 0.0, 1.0, xatol=XATOL) == float(
                reference.x
            )
