"""Per-node fixed-point solves in batches, and the symmetric window grid.

The analytic layer (Theorem 2, best response, deviation and malicious
analysis, the multi-hop game ``G'``) repeatedly solves the coupled system
of equations (2)-(3),

``tau_i = tau(W_i, p_i)``                       (per-node Markov chain)
``p_i   = 1 - prod_{j != i} (1 - tau_j)``       (coupling),

for many window vectors at once: window sweeps, candidate scans,
per-neighbourhood local games.  :func:`solve_heterogeneous_batch` solves
``B`` instances of ``n`` nodes as ``(B, n)`` arrays in one call.  It
runs the fixed-point engine of :mod:`repro.bianchi.meanfield` with every
node its own type of count 1, which is exactly the per-node system
above, so it shares that engine's

* O(n) numerically stable ``log1p``-sum coupling step (no Python
  loops, no leave-one-out products),
* Anderson(m=1)-accelerated damped iteration - typical instances converge
  in tens of iterations instead of the plain damped scheme's budget,
* per-instance convergence masks - finished batch members freeze while
  stragglers keep iterating, so one hard instance does not make the whole
  batch pay, and
* vectorized damped-Newton fallback (explicit Jacobian, batched
  ``numpy.linalg.solve``) for instances that exhaust the fixed-point
  budget.

The symmetric case collapses to one scalar fixed point per instance;
:func:`solve_symmetric_grid` solves a whole grid of common windows as one
array iteration, which is what the window sweeps behind Figures 2/3,
``efficient_window``, ``breakeven_window`` and the multi-hop
quasi-optimality report consume.  It keeps a plain damped iteration, not
the engine's Anderson step: that is what keeps
:func:`~repro.bianchi.fixedpoint.solve_symmetric` and the Table II/III
windows bit-exact.

Numerical contract: solutions agree with the scalar damped reference
loop (a test oracle, ``tests/fixedpoint_oracle.py``) to ``<= 1e-9`` max
abs difference in ``tau`` (both drive the residual of the same equations
below ``~1e-12``); see ``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.typealiases import BoolArray, FloatArray, IntArray
from repro.contracts import check_probability, check_window, checks_enabled
from repro.errors import ConvergenceError, ParameterError
from repro.obs import enabled as _obs_enabled
from repro.obs.metrics import inc as _obs_inc
from repro.obs.metrics import observe_many as _obs_observe_many
from repro.bianchi.markov import _check_max_stage, _tau_unchecked
from repro.bianchi.meanfield import (
    P_MAX,
    _DAMPING,
    _DEFAULT_MAX_ITER,
    _TOL,
    _solve_types,
)

__all__ = [
    "BatchedFixedPoint",
    "SymmetricGridSolution",
    "collision_probabilities",
    "solve_heterogeneous_batch",
    "solve_symmetric_grid",
]


# ----------------------------------------------------------------------
# Coupling step
# ----------------------------------------------------------------------
def collision_probabilities(tau: FloatArray) -> FloatArray:
    """``p_i = 1 - prod_{j != i}(1 - tau_j)`` along the last axis.

    Fully vectorized over any leading batch axes and numerically stable:
    the leave-one-out product is evaluated as ``exp(sum_j log1p(-tau_j) -
    log1p(-tau_i))``, which is O(n) per instance and avoids the precision
    loss of explicit division when some ``1 - tau_j`` is tiny.  Instances
    containing ``tau_j = 1`` are handled exactly (everyone else collides
    with certainty).  The result is clamped to :data:`P_MAX` so it can be
    fed straight back into ``tau(W, p)``.

    Parameters
    ----------
    tau:
        Transmission probabilities, shape ``(..., n)`` with ``n >= 1``.

    Returns
    -------
    numpy.ndarray
        Collision probabilities of the same shape.
    """
    arr = np.asarray(tau, dtype=float)
    if arr.shape[-1] < 1:
        raise ParameterError("tau must have at least one node entry")
    one_minus = 1.0 - arr
    zero = one_minus <= 0.0
    if np.any(zero):
        # A zero factor annihilates every leave-one-out product except
        # its own: p_i = 1 unless i holds the *only* zero factor.
        safe_tau = np.where(zero, 0.0, arr)
        logs = np.log1p(-safe_tau)
        total = logs.sum(axis=-1, keepdims=True)
        loo_nonzero = np.exp(total - logs)
        others_zero = (zero.sum(axis=-1, keepdims=True) - zero) > 0
        prod_others = np.where(others_zero, 0.0, loo_nonzero)
        p = 1.0 - prod_others
    else:
        logs = np.log1p(-arr)
        total = logs.sum(axis=-1, keepdims=True)
        p = 1.0 - np.exp(total - logs)
    return np.minimum(p, P_MAX)


# ----------------------------------------------------------------------
# Heterogeneous batch solver
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchedFixedPoint:
    """Solutions of ``B`` heterogeneous fixed-point instances.

    Attributes
    ----------
    windows:
        Per-instance window vectors, shape ``(B, n)``.
    tau:
        Transmission probabilities at the fixed points, shape ``(B, n)``.
    collision:
        Conditional collision probabilities, shape ``(B, n)``.
    residual:
        Per-instance max-norm residual of ``tau - tau(W, p)``, shape
        ``(B,)``.
    iterations:
        Accelerated fixed-point iterations each instance consumed before
        its convergence mask froze it, shape ``(B,)``.
    newton:
        Boolean mask of instances the vectorized Newton fallback
        finished (their ``iterations`` count the exhausted fixed-point
        budget), shape ``(B,)``.
    """

    windows: FloatArray
    tau: FloatArray
    collision: FloatArray
    residual: FloatArray
    iterations: IntArray
    newton: BoolArray

    @property
    def n_instances(self) -> int:
        """Batch size ``B``."""
        return int(self.tau.shape[0])

    @property
    def n_nodes(self) -> int:
        """Nodes per instance ``n``."""
        return int(self.tau.shape[1])


def solve_heterogeneous_batch(
    windows: Union[Sequence[Sequence[float]], FloatArray],
    max_stage: int,
    *,
    max_iterations: int = _DEFAULT_MAX_ITER,
    initial_tau: Optional[FloatArray] = None,
) -> BatchedFixedPoint:
    """Solve ``B`` heterogeneous ``(tau, p)`` systems in one call.

    Anderson(m=1)-accelerated damped iteration on the stacked ``tau``
    array, with a per-instance convergence mask (converged instances stop
    updating once their max-norm update drops below ``1e-12``) and a
    vectorized damped-Newton fallback for instances that exhaust
    ``max_iterations``.

    Parameters
    ----------
    windows:
        Window vectors, shape ``(B, n)`` (a single ``(n,)`` vector is
        promoted to ``B = 1``).
    max_stage:
        Maximum backoff stage ``m >= 0`` (shared by all nodes and
        instances).
    max_iterations:
        Fixed-point budget before an instance is handed to the Newton
        fallback.
    initial_tau:
        Optional finite warm start that broadcasts to ``(B, n)``, such
        as an ``(n,)`` vector; it is clamped into ``(0, 1)``.

    Returns
    -------
    BatchedFixedPoint

    Raises
    ------
    ParameterError
        On invalid windows, ``max_stage`` or warm start.
    ConvergenceError
        If some instance's residual exceeds ``1e-8`` even after the
        Newton fallback.
    """
    w = np.asarray(windows, dtype=float)
    if w.ndim == 1:
        w = w[None, :]
    if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
        raise ParameterError(
            "windows must be a non-empty (B, n) array of window vectors, "
            f"got shape {w.shape!r}"
        )
    check_window(w, "windows")
    solved = _solve_types(
        w, None, max_stage, max_iterations, initial_tau, "heterogeneous"
    )
    return BatchedFixedPoint(windows=w, **solved._asdict())


# ----------------------------------------------------------------------
# Symmetric grid solver
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SymmetricGridSolution:
    """Symmetric fixed points for a whole grid of common windows.

    One instance per grid window, all sharing the network size
    ``n_nodes``; this is the array the window sweeps of Figures 2/3 and
    the equilibrium searches consume in one call.

    Attributes
    ----------
    windows:
        The window grid, shape ``(G,)``.
    n_nodes:
        Common network size ``n``.
    tau:
        Common transmission probability per grid window, shape ``(G,)``.
    collision:
        ``p = 1 - (1 - tau)^{n-1}`` per grid window, shape ``(G,)``.
    residual:
        Scalar residual per grid window, shape ``(G,)``.
    iterations:
        Damped iterations per grid window (frozen lanes stop counting),
        shape ``(G,)``.
    """

    windows: FloatArray
    n_nodes: int
    tau: FloatArray
    collision: FloatArray
    residual: FloatArray
    iterations: IntArray

    @property
    def n_windows(self) -> int:
        """Grid size ``G``."""
        return int(self.windows.shape[0])


def solve_symmetric_grid(
    windows: Union[Sequence[float], FloatArray],
    n_nodes: int,
    max_stage: int,
    *,
    max_iterations: int = _DEFAULT_MAX_ITER,
) -> SymmetricGridSolution:
    """Solve the symmetric fixed point for every window in a grid at once.

    Runs the same damped iteration as the scalar
    :func:`repro.bianchi.fixedpoint.solve_symmetric`, vectorized across
    the grid with per-window convergence masks (each lane freezes the
    first sweep its update drops below ``1e-12``), so results match the
    scalar solver bit for bit while the whole grid costs one array
    iteration.

    Parameters
    ----------
    windows:
        Common contention windows to solve, shape ``(G,)`` (real values
        accepted, duplicates allowed).
    n_nodes:
        Network size ``n >= 1``.
    max_stage:
        Maximum backoff stage ``m >= 0``.
    max_iterations:
        Damped-iteration budget, as in the scalar solver.

    Returns
    -------
    SymmetricGridSolution

    Raises
    ------
    ParameterError
        On an invalid grid, ``n_nodes`` or ``max_stage``.
    ConvergenceError
        If some window's damped iteration exhausts ``max_iterations``.
    """
    w = np.asarray(windows, dtype=float)
    if w.ndim != 1 or w.shape[0] < 1:
        raise ParameterError("windows must be a non-empty 1-D grid")
    if n_nodes < 1:
        raise ParameterError(f"n_nodes must be >= 1, got {n_nodes!r}")
    check_window(w, "windows")
    _check_max_stage(max_stage)
    n_grid = w.shape[0]

    if n_nodes == 1:
        tau = _tau_unchecked(w, np.zeros_like(w), max_stage)
        if _obs_enabled():
            _obs_inc("bianchi.solves", n_grid, kind="symmetric-grid")
            _obs_inc("bianchi.method", n_grid, method="closed-form")
        return SymmetricGridSolution(
            windows=w,
            n_nodes=1,
            tau=tau,
            collision=np.zeros_like(w),
            residual=np.zeros_like(w),
            iterations=np.zeros(n_grid, dtype=np.int64),
        )

    tau = np.full(n_grid, 0.1)
    iterations = np.zeros(n_grid, dtype=np.int64)
    active = np.arange(n_grid)
    x = tau.copy()
    for sweep in range(1, max_iterations + 1):
        p = np.minimum(1.0 - (1.0 - x) ** (n_nodes - 1), P_MAX)
        target = _tau_unchecked(w[active], p, max_stage)
        updated = _DAMPING * x + (1.0 - _DAMPING) * target
        delta = np.abs(updated - x)
        iterations[active] = sweep
        tau[active] = updated
        converged = delta < _TOL
        if np.all(converged):
            break
        keep = ~converged
        active = active[keep]
        x = updated[keep]
    else:
        raise ConvergenceError(
            f"symmetric grid fixed point did not converge for "
            f"n={n_nodes!r} (worst window {w[active][0]!r})"
        )

    p = np.minimum(1.0 - (1.0 - tau) ** (n_nodes - 1), P_MAX)
    residual = np.abs(tau - _tau_unchecked(w, p, max_stage))
    if checks_enabled():
        check_probability(tau, "tau")
        check_probability(p, "collision")
    if _obs_enabled():
        _obs_inc("bianchi.solves", n_grid, kind="symmetric-grid")
        _obs_inc("bianchi.method", n_grid, method="damped")
        _obs_observe_many(
            "bianchi.iterations",
            iterations.tolist(),
            kind="symmetric-grid",
        )
    return SymmetricGridSolution(
        windows=w,
        n_nodes=int(n_nodes),
        tau=tau,
        collision=p,
        residual=residual,
        iterations=iterations,
    )
