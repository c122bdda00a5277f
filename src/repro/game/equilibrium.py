"""Symmetric Nash equilibria of the MAC game (Section V, Lemma 3, Theorem 2).

After TFT convergence every player uses the same contention window ``W_c``,
so the equilibrium analysis reduces to a one-dimensional problem in the
common transmission probability ``tau_c``:

* **Stationarity (Lemma 3).**  With ``g >> e`` the symmetric utility
  ``U_i(tau_c)`` has a unique interior maximiser ``tau_c*``, the root of

  ``Q(tau) = (1-tau)^n sigma
           + Tc [ (1 - n tau)(1 - (1-tau)^n - n tau (1-tau)^{n-1})
                  - n (n-1) tau^2 (1-tau)^{n-1} ]``

  (re-derived exactly; ``Ts`` cancels from the first-order condition, so
  only ``sigma`` and ``Tc`` appear).  ``Q`` satisfies ``Q(0) = sigma > 0``
  and ``Q(1) = -(n-1) Tc < 0`` and is strictly decreasing in between.

* **Efficient NE.**  ``W_c*`` is the integer window whose symmetric fixed
  point maximises the symmetric utility; Tables II and III report it for
  ``n in {5, 20, 50}``.

* **NE interval (Theorem 2).**  Every symmetric profile ``(W_c,...,W_c)``
  with ``W_c0 <= W_c <= W_c*`` is a NE, where ``W_c0`` is the break-even
  window below which the stage payoff turns negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.contracts import check_interval, check_probability, checks_enabled
from repro.errors import ConvergenceError, ParameterError
from repro.typealiases import FloatArray
from repro.bianchi.fixedpoint import solve_symmetric
from repro.bianchi.markov import _geometric_sum
from repro.game._brent import brentq, minimize_bounded
from repro.game.utility import symmetric_utility_curve, symmetric_utility_from_tau
from repro.phy.parameters import PhyParameters
from repro.phy.timing import SlotTimes

__all__ = [
    "EquilibriumAnalysis",
    "analyze_equilibria",
    "breakeven_window",
    "efficient_window",
    "is_symmetric_equilibrium",
    "optimal_tau",
    "q_function",
    "window_for_tau",
]


def q_function(tau: float, n_nodes: int, times: SlotTimes) -> float:
    """The stationarity function ``Q(tau)`` of Lemma 3 (exact form).

    ``Q(tau) = 0`` is the first-order condition of the symmetric utility
    under the ``g >> e`` approximation; ``Ts`` cancels exactly, leaving
    only ``sigma`` and ``Tc``.

    Parameters
    ----------
    tau:
        Common transmission probability, in ``[0, 1]``.
    n_nodes:
        Network size ``n >= 2``.
    times:
        Slot durations (only ``idle_us`` and ``collision_us`` are used).
    """
    check_probability(tau, "tau", tol=0.0)
    if n_nodes < 2:
        raise ParameterError(f"n_nodes must be >= 2, got {n_nodes!r}")
    return _q_unchecked(tau, n_nodes, times)


def _q_unchecked(tau: float, n: int, times: SlotTimes) -> float:
    """:func:`q_function` without validation, for the root finder's loop."""
    one_minus = 1.0 - tau
    pow_n = one_minus**n
    pow_n1 = one_minus ** (n - 1)
    bracket = (1.0 - n * tau) * (1.0 - pow_n - n * tau * pow_n1) - n * (
        n - 1
    ) * tau**2 * pow_n1
    return pow_n * times.idle_us + times.collision_us * bracket


def optimal_tau(
    n_nodes: int,
    times: SlotTimes,
    *,
    params: Optional[PhyParameters] = None,
    method: str = "q",
    ignore_cost: bool = True,
) -> float:
    """The optimal common transmission probability ``tau_c*`` (Lemma 3).

    Parameters
    ----------
    n_nodes:
        Network size ``n >= 2``.
    times:
        Slot durations for the access mode.
    params:
        Required for ``method="direct"`` (supplies ``g`` and ``e``).
    method:
        ``"q"`` finds the root of the exact stationarity function (the
        paper's Lemma 3, cost term dropped); ``"direct"`` numerically
        maximises the symmetric utility and honours ``ignore_cost``.
    ignore_cost:
        Only used with ``method="direct"``.

    Returns
    -------
    float
        ``tau_c*`` in ``(0, 1)``.
    """
    if n_nodes < 2:
        raise ParameterError(f"n_nodes must be >= 2, got {n_nodes!r}")
    if method == "q":
        lo, hi = 1e-9, 1.0 - 1e-9
        q_lo = q_function(lo, n_nodes, times)
        q_hi = q_function(hi, n_nodes, times)
        if q_lo <= 0 or q_hi >= 0:  # pragma: no cover - guarded by theory
            raise ConvergenceError(
                "Q does not bracket a root; check slot times "
                f"(Q({lo})={q_lo!r}, Q({hi})={q_hi!r})"
            )
        # Both ends are validated above, and Brent's iterates never leave
        # the bracket, so the loop evaluates Q unchecked.
        return brentq(
            lambda t: _q_unchecked(t, n_nodes, times), lo, hi, xtol=1e-14
        )
    if method == "direct":
        if params is None:
            raise ParameterError("method='direct' requires params")
        objective: Callable[[float], float] = lambda t: -symmetric_utility_from_tau(
            t, n_nodes, params, times, ignore_cost=ignore_cost
        )
        return minimize_bounded(objective, 1e-9, 1.0 - 1e-9, xatol=1e-12)
    raise ParameterError(f"unknown method {method!r}; use 'q' or 'direct'")


def window_for_tau(
    tau: float, n_nodes: int, max_stage: int
) -> float:
    """Invert the symmetric fixed point: the (real) ``W`` achieving ``tau``.

    At a symmetric fixed point ``p`` is a function of ``tau`` alone,
    ``p = 1 - (1 - tau)^{n-1}``, so equation (2) can be solved for ``W``
    in closed form::

        W = (2 / tau - 1) / (1 + p * sum_{j=0}^{m-1} (2p)^j)

    Parameters
    ----------
    tau:
        Target common transmission probability, in ``(0, 1]``.
    n_nodes:
        Network size.
    max_stage:
        Maximum backoff stage ``m``.

    Returns
    -------
    float
        The real-valued window; may fall below 1 for very aggressive
        ``tau`` (callers clamp to the strategy space).
    """
    if not 0.0 < tau <= 1.0:
        raise ParameterError(f"tau must lie in (0, 1], got {tau!r}")
    if n_nodes < 1:
        raise ParameterError(f"n_nodes must be >= 1, got {n_nodes!r}")
    p = 1.0 - (1.0 - tau) ** (n_nodes - 1)
    series = _geometric_sum(2.0 * p, max_stage)
    return (2.0 / tau - 1.0) / (1.0 + p * series)


def _unimodal_integer_argmax(
    objective: Callable[[int], float], lo: int, hi: int
) -> int:
    """Ternary search for the argmax of a unimodal function on integers.

    Falls back to a local scan of the final bracket so plateaus (the
    utility around ``W_c*`` is extremely flat) resolve deterministically to
    the smallest maximiser.

    This is the legacy scalar search; the production path precomputes the
    whole utility curve with one batched grid solve and replays the same
    decisions on it (:func:`_unimodal_argmax_on_values`).  It is kept as
    the reference implementation the equivalence tests pin against.
    """
    if lo > hi:
        raise ParameterError(f"empty search range [{lo}, {hi}]")
    left, right = lo, hi
    while right - left > 8:
        third = (right - left) // 3
        m1 = left + third
        m2 = right - third
        if objective(m1) < objective(m2):
            left = m1 + 1
        else:
            right = m2
    values = [(objective(w), -w) for w in range(left, right + 1)]
    best_value, neg_w = max(values)
    del best_value
    return -neg_w


def _unimodal_argmax_on_values(values: FloatArray, lo: int, hi: int) -> int:
    """Replay :func:`_unimodal_integer_argmax` on a precomputed curve.

    ``values[k]`` must be the objective at window ``lo + k``.  The
    bracket-narrowing comparisons and the final plateau scan are decision
    for decision the same as the scalar ternary search, so with equal
    objective values the two return identical windows; only the objective
    evaluations are batched away.
    """
    if lo > hi:
        raise ParameterError(f"empty search range [{lo}, {hi}]")
    left, right = 0, hi - lo
    while right - left > 8:
        third = (right - left) // 3
        m1 = left + third
        m2 = right - third
        if values[m1] < values[m2]:
            left = m1 + 1
        else:
            right = m2
    # np.argmax returns the first maximiser, i.e. the smallest window on
    # a float-equal plateau - the same tie-break as max((value, -w)).
    return lo + left + int(np.argmax(values[left : right + 1]))


def efficient_window(
    n_nodes: int,
    params: PhyParameters,
    times: SlotTimes,
    *,
    ignore_cost: bool = True,
) -> int:
    """The efficient NE window ``W_c*`` (Section V.B, Tables II/III).

    Maximises the symmetric per-node utility over integer windows.  The
    continuous candidate from Lemma 3 seeds the search; a unimodal integer
    search settles the final value (the plateau around the optimum is very
    flat, so ties resolve to the smallest window).

    Parameters
    ----------
    n_nodes:
        Network size ``n >= 2``.
    params, times:
        Model constants.
    ignore_cost:
        Use the paper's ``g >> e`` approximation (default, matches the
        published tables).  Set false to keep the energy term.
    """
    tau_star = optimal_tau(
        n_nodes,
        times,
        params=params,
        method="q" if ignore_cost else "direct",
        ignore_cost=ignore_cost,
    )
    w_guess = window_for_tau(tau_star, n_nodes, params.max_backoff_stage)
    lo = max(params.cw_min, int(w_guess * 0.5))
    hi = min(params.cw_max, max(int(w_guess * 2.0) + 4, lo + 8))

    def search(lo: int, hi: int) -> int:
        # One batched grid solve for the whole bracket, then the same
        # unimodal search decisions on the precomputed curve.
        curve = symmetric_utility_curve(
            np.arange(lo, hi + 1, dtype=float),
            n_nodes,
            params,
            times,
            ignore_cost=ignore_cost,
        )
        return _unimodal_argmax_on_values(curve, lo, hi)

    best = search(lo, hi)
    # Guard against a bracket that clipped the optimum.
    while best == hi and hi < params.cw_max:
        lo, hi = hi, min(params.cw_max, hi * 2)
        best = search(lo, hi)
    while best == lo and lo > params.cw_min:
        hi, lo = lo, max(params.cw_min, lo // 2)
        best = search(lo, hi)
    return int(best)


def breakeven_window(
    n_nodes: int, params: PhyParameters, times: SlotTimes
) -> int:
    """The break-even window ``W_c0`` of Theorem 2.

    The smallest window in the strategy space at which the symmetric stage
    payoff is positive, i.e. ``(1 - p) g > e``.  Below it the symmetric
    profile loses energy faster than it earns and is not a NE.

    Returns
    -------
    int
        ``W_c0``; equals ``cw_min`` when the payoff is already positive at
        the bottom of the strategy space.
    """
    if n_nodes < 2:
        raise ParameterError(f"n_nodes must be >= 2, got {n_nodes!r}")

    def payoff(window: int) -> float:
        solution = solve_symmetric(window, n_nodes, params.max_backoff_stage)
        return symmetric_utility_from_tau(
            solution.tau, n_nodes, params, times, ignore_cost=False
        )

    lo, hi = params.cw_min, params.cw_max
    if payoff(lo) > 0:
        return lo
    if payoff(hi) <= 0:
        raise ConvergenceError(
            "symmetric payoff is non-positive on the whole strategy space; "
            "increase cw_max or lower the cost"
        )
    # Payoff is increasing in W below the optimum, so the sign changes
    # exactly once; one batched grid solve over the strategy space finds
    # the first positive window directly (np.argmax on a boolean array
    # returns the first True).
    curve = symmetric_utility_curve(
        np.arange(lo, hi + 1, dtype=float), n_nodes, params, times,
        ignore_cost=False,
    )
    return lo + int(np.argmax(curve > 0))


@dataclass(frozen=True)
class EquilibriumAnalysis:
    """Bundle of the Section V equilibrium quantities for one game.

    Attributes
    ----------
    n_nodes:
        Network size.
    tau_star:
        Optimal common transmission probability ``tau_c*`` (Lemma 3).
    window_star_continuous:
        Real-valued window mapping to ``tau_star``.
    window_star:
        ``W_c*``: the efficient NE window (integer).
    window_breakeven:
        ``W_c0``: smallest window with positive symmetric payoff.
    utility_at_star:
        Per-node utility rate at ``(W_c*, ..., W_c*)`` (cost included).
    n_equilibria:
        Size of the NE family of Theorem 2, ``W_c* - W_c0 + 1``.
    """

    n_nodes: int
    tau_star: float
    window_star_continuous: float
    window_star: int
    window_breakeven: int
    utility_at_star: float
    n_equilibria: int

    @property
    def ne_windows(self) -> range:
        """The symmetric NE family of Theorem 2 as a range of windows."""
        return range(self.window_breakeven, self.window_star + 1)


def analyze_equilibria(
    n_nodes: int,
    params: PhyParameters,
    times: SlotTimes,
    *,
    ignore_cost: bool = True,
) -> EquilibriumAnalysis:
    """Run the full Section V symmetric-equilibrium analysis.

    Computes ``tau_c*``, ``W_c*``, ``W_c0`` and the size of the NE family
    of Theorem 2 for one network size and access mode.
    """
    tau_star = optimal_tau(
        n_nodes,
        times,
        params=params,
        method="q" if ignore_cost else "direct",
        ignore_cost=ignore_cost,
    )
    w_star = efficient_window(n_nodes, params, times, ignore_cost=ignore_cost)
    w_zero = breakeven_window(n_nodes, params, times)
    if w_zero > w_star:
        raise ConvergenceError(
            f"break-even window {w_zero} exceeds efficient window {w_star}; "
            "the NE family of Theorem 2 is empty (cost too high)"
        )
    solution = solve_symmetric(w_star, n_nodes, params.max_backoff_stage)
    utility = symmetric_utility_from_tau(
        solution.tau, n_nodes, params, times, ignore_cost=False
    )
    if checks_enabled():
        # Theorem 2: the NE family is the window interval
        # W_c0 <= W_c <= W_c*, bounded by the strategy space.
        check_probability(tau_star, "tau_star", tol=0.0)
        check_interval(
            w_star, params.cw_min, params.cw_max, "efficient window"
        )
        check_interval(
            w_zero, params.cw_min, w_star, "break-even window"
        )
    return EquilibriumAnalysis(
        n_nodes=n_nodes,
        tau_star=tau_star,
        window_star_continuous=window_for_tau(
            tau_star, n_nodes, params.max_backoff_stage
        ),
        window_star=w_star,
        window_breakeven=w_zero,
        utility_at_star=utility,
        n_equilibria=w_star - w_zero + 1,
    )


def is_symmetric_equilibrium(
    window: int,
    n_nodes: int,
    params: PhyParameters,
    times: SlotTimes,
    *,
    analysis: Optional[EquilibriumAnalysis] = None,
) -> bool:
    """Whether ``(window, ..., window)`` is a NE of ``G`` (Theorem 2).

    True exactly when ``W_c0 <= window <= W_c*``.  Pass a pre-computed
    ``analysis`` to avoid re-solving the model.
    """
    if analysis is None:
        analysis = analyze_equilibria(n_nodes, params, times)
    return analysis.window_breakeven <= window <= analysis.window_star
