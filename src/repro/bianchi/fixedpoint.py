"""Coupled fixed point of the heterogeneous DCF model (equations (2)-(3)).

Given per-node contention windows ``W_1..W_n``, the model is the system

``tau_i = tau(W_i, p_i)``          (per-node Markov chain, equation (2))
``p_i   = 1 - prod_{j != i} (1 - tau_j)``   (coupling, equation (3))

which is ``2n`` equations in ``2n`` unknowns.  This module holds the
one-instance wrappers.  :func:`solve_heterogeneous` is a thin ``B = 1``
wrapper around :func:`~repro.bianchi.batched.solve_heterogeneous_batch`,
which runs the fixed-point engine of :mod:`repro.bianchi.meanfield`, and
the memoized :func:`solve_symmetric` wraps a one-window
:func:`~repro.bianchi.batched.solve_symmetric_grid` call.

For the symmetric case (all nodes share one ``W``) the system collapses to
a scalar fixed point ``tau = tau(W, 1 - (1 - tau)^{n-1})``; the paper notes
(after Bianchi) that this admits a unique solution.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from repro.typealiases import FloatArray
from repro.contracts import check_window
from repro.errors import ParameterError
from repro.bianchi.batched import (
    _record_symmetric_solves,
    _solve_symmetric_grid,
    solve_heterogeneous_batch,
)
from repro.bianchi.markov import transmission_probability
from repro.bianchi.meanfield import _DEFAULT_MAX_ITER

__all__ = [
    "FixedPointSolution",
    "SymmetricSolution",
    "solve_heterogeneous",
    "solve_symmetric",
    "symmetric_cache_info",
]


@dataclass(frozen=True)
class FixedPointSolution:
    """Solution of the heterogeneous fixed point.

    Attributes
    ----------
    windows:
        The per-node contention windows the solution corresponds to.
    tau:
        Per-node transmission probabilities ``tau_i``.
    collision:
        Per-node conditional collision probabilities ``p_i``.
    residual:
        Max-norm residual of ``tau_i - tau(W_i, p_i)`` at the solution.
    iterations:
        Number of fixed-point iterations consumed.  When ``method`` is
        ``"newton"`` this counts the exhausted fixed-point budget.
    method:
        How the solution was obtained: ``"closed-form"`` (``n = 1``),
        ``"anderson"`` (accelerated batched iteration) or ``"newton"``
        (vectorized Newton fallback).
    """

    windows: FloatArray
    tau: FloatArray
    collision: FloatArray
    residual: float
    iterations: int
    method: str = "anderson"

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the solved network."""
        return int(self.tau.shape[0])


@dataclass(frozen=True)
class SymmetricSolution:
    """Solution of the symmetric (common-``W``) fixed point.

    Attributes
    ----------
    window:
        The common contention window ``W``.
    n_nodes:
        Network size ``n``.
    tau:
        Common transmission probability.
    collision:
        Common conditional collision probability ``p = 1-(1-tau)^{n-1}``.
    residual:
        Scalar residual at the solution.
    iterations:
        Number of damped iterations used.
    """

    window: float
    n_nodes: int
    tau: float
    collision: float
    residual: float
    iterations: int


def solve_heterogeneous(
    windows: Sequence[float],
    max_stage: int,
    *,
    max_iterations: int = _DEFAULT_MAX_ITER,
    initial_tau: Optional[Sequence[float]] = None,
) -> FixedPointSolution:
    """Solve the coupled ``(tau, p)`` system for per-node windows.

    Thin ``B = 1`` wrapper over the batched Anderson-accelerated solver
    (:func:`repro.bianchi.batched.solve_heterogeneous_batch`); callers
    with many window vectors should batch them instead of looping here.

    Parameters
    ----------
    windows:
        Contention window of each node (length ``n >= 1``).
    max_stage:
        Maximum backoff stage ``m`` (shared by all nodes).
    max_iterations:
        Iteration budget for the accelerated scheme before the batched
        Newton fallback takes over.
    initial_tau:
        Optional warm start for the tau vector.

    Returns
    -------
    FixedPointSolution

    Raises
    ------
    ConvergenceError
        If neither the accelerated iteration nor the Newton fallback
        reaches a residual below ``1e-8``.
    """
    w = np.asarray(list(windows), dtype=float)
    if w.ndim != 1 or w.shape[0] < 1:
        raise ParameterError("windows must be a non-empty 1-D sequence")
    check_window(w, "windows")
    n = w.shape[0]

    if n == 1:
        # A lone node never collides: p = 0, tau = tau(W, 0).
        tau = np.array([transmission_probability(w[0], 0.0, max_stage)])
        return FixedPointSolution(
            windows=w,
            tau=tau,
            collision=np.zeros(1),
            residual=0.0,
            iterations=0,
            method="closed-form",
        )

    start: Optional[FloatArray] = None
    if initial_tau is not None:
        start = np.asarray(list(initial_tau), dtype=float)
        if start.shape != w.shape:
            raise ParameterError("initial_tau must match windows in length")

    batch = solve_heterogeneous_batch(
        w[None, :], max_stage, max_iterations=max_iterations, initial_tau=start
    )
    return FixedPointSolution(
        windows=w,
        tau=batch.tau[0],
        collision=batch.collision[0],
        residual=float(batch.residual[0]),
        iterations=int(batch.iterations[0]),
        method="newton" if bool(batch.newton[0]) else "anderson",
    )


def solve_symmetric(
    window: float,
    n_nodes: int,
    max_stage: int,
    *,
    max_iterations: int = _DEFAULT_MAX_ITER,
) -> SymmetricSolution:
    """Solve the scalar symmetric fixed point for a common window.

    Results are memoized: scattered scalar queries (the multi-hop local
    games, spot checks) re-solve the same ``(W, n)`` pairs many times,
    and the solution object is frozen, so identical arguments return the
    cached instance.  Every call records the solve's obs events, memo
    hit or not.  Whole window sweeps should call
    :func:`repro.bianchi.batched.solve_symmetric_grid` instead and pay
    one array iteration for the entire grid.

    Parameters
    ----------
    window:
        Common contention window ``W`` (real values accepted).
    n_nodes:
        Network size ``n >= 1``.
    max_stage:
        Maximum backoff stage ``m``.

    Returns
    -------
    SymmetricSolution

    Raises
    ------
    ConvergenceError
        If the damped iteration does not converge; in practice the map
        is a contraction after damping and this does not trigger.
    """
    solution = _solve_symmetric_cached(
        float(window), int(n_nodes), int(max_stage), int(max_iterations)
    )
    _record_symmetric_solves(solution.n_nodes, [solution.iterations])
    return solution


def symmetric_cache_info() -> "functools._CacheInfo":
    """Hit/miss statistics of the symmetric fixed-point memo cache."""
    return _solve_symmetric_cached.cache_info()


@lru_cache(maxsize=65536)
def _solve_symmetric_cached(
    window: float,
    n_nodes: int,
    max_stage: int,
    max_iterations: int,
) -> SymmetricSolution:
    grid = _solve_symmetric_grid(
        np.array([float(window)]), n_nodes, max_stage, max_iterations
    )
    return SymmetricSolution(
        window=float(window),
        n_nodes=int(n_nodes),
        tau=float(grid.tau[0]),
        collision=float(grid.collision[0]),
        residual=float(grid.residual[0]),
        iterations=int(grid.iterations[0]),
    )
