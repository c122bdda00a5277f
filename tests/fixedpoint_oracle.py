"""Scalar damped reference loop for the heterogeneous fixed point.

A test oracle, not a production solver: the original per-node iteration
``tau <- (tau + tau(W, p(tau))) / 2`` of equations (2)-(3), with one
scalar ``tau(W_i, p_i)`` call per node per sweep and no acceleration or
fallback.  The Anderson engine behind
:func:`repro.bianchi.batched.solve_heterogeneous_batch` must agree with
it to ``1e-9`` in ``tau``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.bianchi.batched import collision_probabilities
from repro.bianchi.fixedpoint import FixedPointSolution
from repro.bianchi.markov import transmission_probability
from repro.errors import ConvergenceError


def solve_heterogeneous_reference(
    windows: Sequence[float],
    max_stage: int,
    *,
    max_iterations: int = 100_000,
    initial_tau: Optional[Sequence[float]] = None,
) -> FixedPointSolution:
    """Damped scalar solve; ``ConvergenceError`` when the budget runs out."""
    w = np.asarray(list(windows), dtype=float)
    tau = np.full(w.size, 0.1) if initial_tau is None else np.asarray(
        list(initial_tau), dtype=float
    )

    def step(current: np.ndarray) -> np.ndarray:
        p = collision_probabilities(current)
        return np.array(
            [
                transmission_probability(float(wi), float(pi), max_stage)
                for wi, pi in zip(w, p)
            ]
        )

    for iterations in range(1, max_iterations + 1):
        updated = 0.5 * tau + 0.5 * step(tau)
        delta = float(np.max(np.abs(updated - tau)))
        tau = updated
        if delta < 1e-12:
            break
    else:
        raise ConvergenceError(
            f"damped fixed point did not converge in {max_iterations} "
            f"iterations for windows={w!r}"
        )
    residual = float(np.max(np.abs(tau - step(tau))))
    if residual > 1e-8:
        raise ConvergenceError(f"fixed point residual {residual:.3e}")
    return FixedPointSolution(
        windows=w,
        tau=tau,
        collision=collision_probabilities(tau),
        residual=residual,
        iterations=iterations,
        method="damped",
    )
