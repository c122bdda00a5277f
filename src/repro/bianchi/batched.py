"""Batched, vectorized solvers for the heterogeneous DCF fixed point.

The analytic layer (Theorem 2, best response, deviation and malicious
analysis, the multi-hop game ``G'``) repeatedly solves the coupled system
of equations (2)-(3),

``tau_i = tau(W_i, p_i)``                       (per-node Markov chain)
``p_i   = 1 - prod_{j != i} (1 - tau_j)``       (coupling),

for many window vectors at once: window sweeps, candidate scans,
per-neighbourhood local games.  :mod:`repro.bianchi.fixedpoint` solves one
instance per call through Python-level loops; this module gives the layer
a **batch axis**: ``B`` instances of ``n`` nodes are solved as ``(B, n)``
arrays in one call, with

* an O(n) numerically stable ``log1p``-sum coupling step (no Python
  loops, no leave-one-out products),
* Anderson(m=1)-accelerated damped iteration - typical instances converge
  in tens of iterations instead of the plain damped scheme's budget,
* per-instance convergence masks - finished batch members freeze while
  stragglers keep iterating, so one hard instance does not make the whole
  batch pay, and
* a vectorized damped-Newton fallback (explicit Jacobian, batched
  ``numpy.linalg.solve``) for instances that exhaust the fixed-point
  budget.

The symmetric case collapses to one scalar fixed point per instance;
:func:`solve_symmetric_grid` solves a whole grid of common windows as one
array iteration, which is what the window sweeps behind Figures 2/3,
``efficient_window``, ``breakeven_window`` and the multi-hop
quasi-optimality report consume.

Numerical contract: solutions agree with the scalar reference solver
(:func:`repro.bianchi.fixedpoint.solve_heterogeneous_reference`) to
``<= 1e-9`` max abs difference in ``tau`` (both drive the residual of the
same equations below ``~1e-12``); see ``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.typealiases import BoolArray, FloatArray, IntArray
from repro.backends import ComputeBackend, resolve_backend
from repro.contracts import check_probability, check_window, checks_enabled
from repro.errors import ConvergenceError, ParameterError
from repro.obs import enabled as _obs_enabled
from repro.obs.metrics import inc as _obs_inc
from repro.obs.metrics import observe_many as _obs_observe_many
from repro.bianchi.markov import transmission_probability

__all__ = [
    "BatchedFixedPoint",
    "SymmetricGridSolution",
    "collision_probabilities",
    "solve_heterogeneous_batch",
    "solve_symmetric_grid",
]

#: Central clamp for conditional collision probabilities.  ``tau(W, p)``
#: requires ``p < 1``; every coupling step routes through this single
#: constant instead of ad-hoc ``min(p, ...)`` at each call site.
P_MAX = 1.0 - 1e-15

#: Clamp for tau iterates (Anderson extrapolation may overshoot (0, 1)).
_TAU_MIN = 1e-12
_TAU_MAX = 1.0 - 1e-12

_DAMPING = 0.5
_DEFAULT_TOL = 1e-12
_DEFAULT_MAX_ITER = 100_000
#: Reject Anderson extrapolation when the mixing coefficient explodes;
#: the iteration then falls back to the plain damped step for that lane.
_GAMMA_LIMIT = 2.0
_NEWTON_MAX_ITER = 60
_RESIDUAL_LIMIT = 1e-8


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


def _validate_batch_windows(windows: object) -> FloatArray:
    w = np.asarray(windows, dtype=float)
    if w.ndim == 1:
        w = w[None, :]
    if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
        raise ParameterError(
            "windows must be a non-empty (B, n) array of window vectors, "
            f"got shape {w.shape!r}"
        )
    check_window(w, "windows")
    return w


def _tau_step(w: FloatArray, tau: FloatArray, max_stage: int) -> FloatArray:
    """One coupling sweep ``tau -> tau(W, p(tau))`` on ``(B, n)`` arrays."""
    p = collision_probabilities(tau)
    return transmission_probability(w, p, max_stage)


def solve_heterogeneous_batch(
    windows: Union[Sequence[Sequence[float]], FloatArray],
    max_stage: int,
    *,
    tol: float = _DEFAULT_TOL,
    max_iterations: int = _DEFAULT_MAX_ITER,
    initial_tau: Optional[FloatArray] = None,
    backend: Union[None, str, ComputeBackend] = None,
) -> BatchedFixedPoint:
    """Solve ``B`` heterogeneous ``(tau, p)`` systems in one call.

    Anderson(m=1)-accelerated damped iteration on the stacked ``tau``
    array, with a per-instance convergence mask (converged instances stop
    updating) and a vectorized damped-Newton fallback for instances that
    exhaust ``max_iterations``.

    Parameters
    ----------
    windows:
        Window vectors, shape ``(B, n)`` (a single ``(n,)`` vector is
        promoted to ``B = 1``).
    max_stage:
        Maximum backoff stage ``m`` (shared by all nodes and instances).
    tol:
        Convergence tolerance on the max-norm tau update per instance.
    max_iterations:
        Fixed-point budget before an instance is handed to the Newton
        fallback.
    initial_tau:
        Optional warm start, shape ``(n,)`` or ``(B, n)``.
    backend:
        Compute backend for the iteration: a registered name, a
        :class:`~repro.backends.ComputeBackend` instance, or ``None``
        for the configured default.  Backends that accelerate the fixed
        point (``numba``, ``cnative``, ``python``) run a per-lane damped
        iteration; lanes they fail to converge - and all lanes on
        backends without fixed-point support - go through this module's
        numpy Anderson/Newton path.  Every backend is pinned to the
        numpy solution within ``1e-9`` by the equivalence suite.

    Returns
    -------
    BatchedFixedPoint

    Raises
    ------
    ConvergenceError
        If some instance's residual exceeds ``1e-8`` even after the
        Newton fallback.
    """
    w = _validate_batch_windows(windows)
    n_batch, n_nodes = w.shape
    backend_obj = (
        backend
        if isinstance(backend, ComputeBackend)
        else resolve_backend(backend)
    )
    native = backend_obj.supports_fixed_point

    if n_nodes == 1:
        # A lone node never collides: p = 0, tau = tau(W, 0), exactly.
        tau = transmission_probability(w, np.zeros_like(w), max_stage)
        if _obs_enabled():
            _obs_inc("bianchi.solves", n_batch, kind="heterogeneous")
            _obs_inc("bianchi.method", n_batch, method="closed-form")
        return BatchedFixedPoint(
            windows=w,
            tau=tau,
            collision=np.zeros_like(w),
            residual=np.zeros(n_batch),
            iterations=np.zeros(n_batch, dtype=np.int64),
            newton=np.zeros(n_batch, dtype=bool),
        )

    if initial_tau is not None:
        tau = np.array(np.broadcast_to(np.asarray(initial_tau, dtype=float), w.shape))
        if tau.shape != w.shape:  # pragma: no cover - broadcast_to raises first
            raise ParameterError("initial_tau must broadcast to windows' shape")
        tau = np.clip(tau, _TAU_MIN, _TAU_MAX)
    else:
        tau = np.full_like(w, 0.1)

    if native:
        # The backend runs a per-lane damped iteration in compiled code;
        # lanes it reports unconverged fall through to the Newton
        # fallback exactly like Anderson stragglers.
        tau, iterations, converged = backend_obj.solve_batch(
            w,
            max_stage,
            tol=tol,
            max_iterations=max_iterations,
            initial_tau=tau,
        )
        active = np.flatnonzero(~converged)
        return _finalize_batch(
            w, tau, iterations, active, max_stage, tol,
            method=f"damped-{backend_obj.name}",
        )

    iterations = np.zeros(n_batch, dtype=np.int64)
    active = np.arange(n_batch)
    x = tau.copy()
    # Anderson(1) history of the active lanes.
    x_prev: Optional[FloatArray] = None
    f_prev: Optional[FloatArray] = None

    for sweep in range(1, max_iterations + 1):
        w_act = w[active]
        g = _tau_step(w_act, x, max_stage)
        f = g - x
        if f_prev is None:
            x_next = x + _DAMPING * f
        else:
            df = f - f_prev
            num = (f * df).sum(axis=-1)
            den = (df * df).sum(axis=-1)
            safe_den = np.where(den == 0.0, 1.0, den)
            gamma = num / safe_den
            usable = (den != 0.0) & np.isfinite(gamma) & (
                np.abs(gamma) <= _GAMMA_LIMIT
            )
            gamma = np.where(usable, gamma, 0.0)[:, None]
            x_next = x + _DAMPING * f - gamma * (
                x - x_prev + _DAMPING * df
            )
        x_next = np.clip(x_next, _TAU_MIN, _TAU_MAX)
        delta = np.max(np.abs(x_next - x), axis=-1)
        iterations[active] = sweep
        converged = delta < tol
        tau[active] = x_next
        if np.all(converged):
            active = active[:0]
            break
        keep = ~converged
        active = active[keep]
        x_prev = x[keep]
        f_prev = f[keep]
        x = x_next[keep]

    return _finalize_batch(
        w, tau, iterations, active, max_stage, tol, method="anderson"
    )


def _finalize_batch(
    w: FloatArray,
    tau: FloatArray,
    iterations: IntArray,
    active: IntArray,
    max_stage: int,
    tol: float,
    *,
    method: str,
) -> BatchedFixedPoint:
    """Newton-finish stragglers, then validate and package the batch.

    Shared by the numpy Anderson path and every accelerated backend:
    ``active`` indexes the lanes whose iteration did not converge, and
    the residual/contract checks below hold regardless of which kernel
    produced ``tau`` - this is what makes backends interchangeable.
    """
    n_batch = w.shape[0]
    newton = np.zeros(n_batch, dtype=bool)
    if active.size:
        tau[active] = _newton_fallback(w[active], tau[active], max_stage, tol)
        newton[active] = True

    p = collision_probabilities(tau)
    residual = np.max(
        np.abs(tau - transmission_probability(w, p, max_stage)), axis=-1
    )
    worst = float(residual.max())
    if worst > _RESIDUAL_LIMIT:
        index = int(residual.argmax())
        raise ConvergenceError(
            f"fixed point residual {worst:.3e} exceeds tolerance for "
            f"windows={w[index]!r} (batch instance {index})"
        )
    if checks_enabled():
        # Theorem 2 rests on tau_i, p_i being probabilities; catch a
        # numerically corrupted batch before it contaminates the
        # utility/equilibrium layers.
        check_probability(tau, "tau")
        check_probability(p, "collision")
    if _obs_enabled():
        newton_count = int(newton.sum())
        _obs_inc("bianchi.solves", n_batch, kind="heterogeneous")
        if n_batch > newton_count:
            _obs_inc(
                "bianchi.method", n_batch - newton_count, method=method
            )
        if newton_count:
            _obs_inc("bianchi.method", newton_count, method="newton")
            _obs_inc("bianchi.fallbacks", newton_count, method="newton")
        _obs_observe_many(
            "bianchi.iterations",
            iterations.tolist(),
            kind="heterogeneous",
        )
    return BatchedFixedPoint(
        windows=w,
        tau=tau,
        collision=p,
        residual=residual,
        iterations=iterations,
        newton=newton,
    )


def _series_derivative(p: FloatArray, max_stage: int) -> FloatArray:
    """``d/dp [p * sum_{j=0}^{m-1} (2p)^j] = sum_{j=0}^{m-1} (j+1) 2^j p^j``."""
    acc = np.zeros_like(p)
    power = np.ones_like(p)
    for j in range(max_stage):
        acc += float((j + 1) * (2**j)) * power
        power = power * p
    return acc


def _newton_fallback(
    w: FloatArray, tau0: FloatArray, max_stage: int, tol: float
) -> FloatArray:
    """Vectorized damped Newton on ``F(x) = x - tau(W, p(x))``.

    Solves all straggler instances simultaneously with the explicit
    Jacobian ``J = I - (dtau/dp) (dp/dx)`` and batched
    ``numpy.linalg.solve``; a step-halving line search keeps the residual
    monotone.
    """
    n = w.shape[-1]
    x = np.clip(tau0, 1e-6, 1.0 - 1e-6)
    target = max(tol, 1e-13)
    eye = np.eye(n)

    def residual_vec(values: FloatArray) -> FloatArray:
        return values - transmission_probability(
            w, collision_probabilities(values), max_stage
        )

    f = residual_vec(x)
    for _ in range(_NEWTON_MAX_ITER):
        norms = np.max(np.abs(f), axis=-1)
        if float(norms.max()) < target:
            break
        p = collision_probabilities(x)
        series = np.zeros_like(p)
        power = np.ones_like(p)
        for _j in range(max_stage):
            power = power * (2.0 * p)
            series += power
        series = 1.0 + series - power  # sum_{j=0}^{m-1} (2p)^j, via shift
        denom = 1.0 + w + p * w * series
        dtau_dp = -2.0 * w * _series_derivative(p, max_stage) / (denom * denom)
        # dp_i/dx_j = (1 - p_i) / (1 - x_j) off the diagonal.
        outer = (dtau_dp * (1.0 - p))[:, :, None] / (1.0 - x)[:, None, :]
        idx = np.arange(n)
        outer[:, idx, idx] = 0.0
        jacobian = eye[None, :, :] - outer
        try:
            # (B, n) rhs must be a stack of column vectors, not one matrix.
            step = np.linalg.solve(jacobian, f[..., None])[..., 0]
        except np.linalg.LinAlgError as error:  # pragma: no cover - singular J
            raise ConvergenceError(
                f"Newton fallback hit a singular Jacobian: {error}"
            ) from error
        scale = np.ones((x.shape[0], 1))
        improved = None
        for _halving in range(8):
            candidate = np.clip(x - scale * step, _TAU_MIN, _TAU_MAX)
            f_candidate = residual_vec(candidate)
            improved = np.max(np.abs(f_candidate), axis=-1) <= norms
            if np.all(improved):
                break
            scale = np.where(improved[:, None], scale, scale * 0.5)
        x = np.clip(x - scale * step, _TAU_MIN, _TAU_MAX)
        f = residual_vec(x)
    return x


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
    tol: float = _DEFAULT_TOL,
    max_iterations: int = _DEFAULT_MAX_ITER,
) -> SymmetricGridSolution:
    """Solve the symmetric fixed point for every window in a grid at once.

    Runs the same damped iteration as the scalar
    :func:`repro.bianchi.fixedpoint.solve_symmetric`, vectorized across
    the grid with per-window convergence masks (each lane freezes the
    first sweep its update drops below ``tol``), so results match the
    scalar solver to floating-point noise while the whole grid costs one
    array iteration.

    Parameters
    ----------
    windows:
        Common contention windows to solve, shape ``(G,)`` (real values
        accepted, duplicates allowed).
    n_nodes:
        Network size ``n >= 1``.
    max_stage:
        Maximum backoff stage ``m``.
    tol, max_iterations:
        Damped-iteration stopping rule, as in the scalar solver.

    Returns
    -------
    SymmetricGridSolution
    """
    w = np.asarray(windows, dtype=float)
    if w.ndim != 1 or w.shape[0] < 1:
        raise ParameterError("windows must be a non-empty 1-D grid")
    if n_nodes < 1:
        raise ParameterError(f"n_nodes must be >= 1, got {n_nodes!r}")
    check_window(w, "windows")
    n_grid = w.shape[0]

    if n_nodes == 1:
        tau = transmission_probability(w, np.zeros_like(w), max_stage)
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
        target = transmission_probability(w[active], p, max_stage)
        updated = _DAMPING * x + (1.0 - _DAMPING) * target
        delta = np.abs(updated - x)
        iterations[active] = sweep
        tau[active] = updated
        converged = delta < tol
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
    residual = np.abs(tau - transmission_probability(w, p, max_stage))
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
