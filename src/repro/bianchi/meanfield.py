"""Type-distribution fixed point: the one Bianchi fixed-point engine.

Real populations have few *distinct* contention-window configurations:
a million nodes might split into a handful of CW **types** (compliant,
two or three selfish presets, a malicious fringe).  Because the fixed
point of the coupled system (2)-(3) is symmetric within a type - two
nodes with the same window see the same coupling and therefore share
the same ``tau`` - the per-node system collapses exactly to a
type-distribution formulation:

``tau_k = tau(W_k, p_k)``                                (per type)
``p_k   = 1 - prod_j (1 - tau_j)^(n_j - delta_jk)``      (coupling),

where ``n_j`` counts the nodes of type ``j``.  The coupling step is
O(K) per instance *independent of the population size*: a million-node
population with K = 8 types costs exactly as much as an 8-node exact
solve.  This is not an approximation - for integer type counts the
type-distribution fixed point expands to a per-node fixed point and
agrees with it to ``<= 1e-9`` in ``tau`` (pinned by
``tests/unit/test_meanfield.py`` and
``benchmarks/test_bench_meanfield.py``).

This module holds the package's only Anderson-accelerated fixed-point
engine: a batch axis over ``B`` populations, Anderson(m=1)-accelerated
damped sweeps with per-instance convergence masks, and a vectorized
damped-Newton fallback on the K-dimensional residual (the Jacobian is
``(B, K, K)`` - tiny, regardless of population).  The per-node solver
:func:`~repro.bianchi.batched.solve_heterogeneous_batch` is this engine
with every count equal to 1: with unit counts the type coupling is the
per-node leave-one-out product ``p_i = 1 - prod_{j != i} (1 - tau_j)``
bit for bit.  Windows, counts, ``max_stage`` and warm starts are
validated once at each public entry; the sweeps are validation-free
arithmetic.

Real-valued (fractional) counts are accepted so replicator/evolutionary
dynamics (:mod:`repro.game.dynamics`) can flow population *fractions*
through the same solver; the exactness anchor above applies to integer
counts, which is the down-sampling used in validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.typealiases import BoolArray, FloatArray, IntArray
from repro.contracts import check_probability, check_window, checks_enabled
from repro.errors import ConvergenceError, ParameterError
from repro.obs import enabled as _obs_enabled
from repro.obs.metrics import inc as _obs_inc
from repro.obs.metrics import observe_many as _obs_observe_many
from repro.bianchi.markov import _check_max_stage, _tau_unchecked
from repro.phy.parameters import PhyParameters
from repro.phy.timing import SlotTimes

__all__ = [
    "MeanFieldSolution",
    "MeanFieldStatistics",
    "expand_types",
    "mean_field_statistics",
    "solve_mean_field",
    "solve_mean_field_batch",
    "type_collision_probabilities",
]

#: Cache-entering analysis roots for ``repro.lint --deep`` (REPRO101):
#: served ``mean_field`` results and replicator steps replay cached
#: digests produced by these calls, so the whole call tree must stay
#: free of I/O, clock, environment and entropy effects.
ANALYSIS_ROOTS = (
    "repro.bianchi.meanfield.solve_mean_field_batch",
    "repro.bianchi.meanfield.mean_field_statistics",
)

#: Central clamp for conditional collision probabilities.  ``tau(W, p)``
#: requires ``p < 1``; every coupling step routes through this single
#: constant instead of ad-hoc ``min(p, ...)`` at each call site.
P_MAX = 1.0 - 1e-15

#: Clamp for tau iterates (Anderson extrapolation may overshoot (0, 1)).
_TAU_MIN = 1e-12
_TAU_MAX = 1.0 - 1e-12

_DAMPING = 0.5
#: Convergence tolerance on the max-norm tau update of one instance.
_TOL = 1e-12
_DEFAULT_MAX_ITER = 100_000
#: Reject Anderson extrapolation when the mixing coefficient explodes;
#: the iteration then falls back to the plain damped step for that lane.
_GAMMA_LIMIT = 2.0
_NEWTON_MAX_ITER = 60
_RESIDUAL_LIMIT = 1e-8


# ----------------------------------------------------------------------
# Coupling step
# ----------------------------------------------------------------------
def type_collision_probabilities(
    tau: FloatArray, counts: FloatArray
) -> FloatArray:
    """``p_k = 1 - prod_j (1 - tau_j)^(n_j - delta_jk)`` along the last axis.

    The leave-one-out product over the *population* - every node except
    one of type ``k`` - evaluated through ``log1p`` sums, O(K) per
    instance and numerically stable for tiny ``tau`` and huge counts::

        p_k = 1 - exp( sum_j n_j log1p(-tau_j) - log1p(-tau_k) )

    Parameters
    ----------
    tau:
        Per-type transmission probabilities, shape ``(..., K)``, all
        strictly below 1 (the solvers clamp their iterates).
    counts:
        Per-type node counts ``n_j > 0`` (real values accepted), same
        shape.

    Returns
    -------
    numpy.ndarray
        Per-type conditional collision probabilities, clamped to
        :data:`P_MAX`.
    """
    arr = np.asarray(tau, dtype=float)
    weights = np.asarray(counts, dtype=float)
    if arr.shape[-1] < 1:
        raise ParameterError("tau must have at least one type entry")
    logs = np.log1p(-arr)
    total = (weights * logs).sum(axis=-1, keepdims=True)
    p = 1.0 - np.exp(total - logs)
    # Sub-unit counts (replicator fractions) can push the leave-one-out
    # weight of a type's own term negative; a population of less than
    # one whole node cannot collide with itself, so floor at zero.
    return np.clip(p, 0.0, P_MAX)


# ----------------------------------------------------------------------
# Solution containers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MeanFieldSolution:
    """Solutions of ``B`` type-distribution fixed-point instances.

    Attributes
    ----------
    type_windows:
        Per-instance type windows, shape ``(B, K)``.
    type_counts:
        Per-instance node counts per type, shape ``(B, K)``.
    tau:
        Per-type transmission probabilities at the fixed points,
        shape ``(B, K)``.
    collision:
        Per-type conditional collision probabilities, shape ``(B, K)``.
    residual:
        Per-instance max-norm residual of ``tau - tau(W, p)``, shape
        ``(B,)``.
    iterations:
        Accelerated fixed-point iterations each instance consumed,
        shape ``(B,)``.
    newton:
        Instances finished by the Newton fallback, shape ``(B,)``.
    """

    type_windows: FloatArray
    type_counts: FloatArray
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
    def n_types(self) -> int:
        """Distinct CW types per instance ``K``."""
        return int(self.tau.shape[1])

    @property
    def population(self) -> FloatArray:
        """Total population per instance, ``sum_k n_k``, shape ``(B,)``."""
        return self.type_counts.sum(axis=-1)


@dataclass(frozen=True)
class MeanFieldStatistics:
    """Channel statistics and per-type utilities of one solved instance.

    All O(K): the idle probability is ``exp(sum_k n_k log1p(-tau_k))``,
    the aggregate success probability ``sum_k n_k tau_k (1 - p_k)``, and
    the per-type utility the paper's rate
    ``u_k = tau_k ((1 - p_k) g - e) / E[slot]``.

    Attributes
    ----------
    p_idle:
        Probability of an idle slot.
    p_transmission:
        ``Ptr`` - probability at least one node transmits.
    p_success_slot:
        Probability a random slot is a success (exactly one attempt).
    expected_slot_us:
        Expected slot duration in microseconds.
    throughput:
        Normalized saturation throughput ``S`` in ``[0, 1)``.
    type_utilities:
        Per-type per-microsecond utility rates, shape ``(K,)``.
    """

    p_idle: float
    p_transmission: float
    p_success_slot: float
    expected_slot_us: float
    throughput: float
    type_utilities: FloatArray


# ----------------------------------------------------------------------
# Validation and expansion helpers
# ----------------------------------------------------------------------
def _validate_types(
    type_windows: object, type_counts: object
) -> Tuple[FloatArray, FloatArray]:
    w = np.asarray(type_windows, dtype=float)
    n = np.asarray(type_counts, dtype=float)
    if w.ndim == 1:
        w = w[None, :]
    if n.ndim == 1:
        n = n[None, :]
    if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
        raise ParameterError(
            "type windows must be a non-empty (B, K) array, got shape "
            f"{w.shape!r}"
        )
    if n.shape != w.shape:
        raise ParameterError(
            f"type counts shape {n.shape!r} must match type windows "
            f"shape {w.shape!r}"
        )
    check_window(w, "type windows")
    if np.any(~np.isfinite(n)) or np.any(n <= 0.0):
        raise ParameterError(
            f"type counts must be finite and positive, got {n!r}"
        )
    return w, n


def expand_types(
    type_windows: Union[Sequence[float], FloatArray],
    type_counts: Union[Sequence[int], IntArray],
) -> FloatArray:
    """Expand one ``(types, counts)`` population to a per-node vector.

    The bridge to the exact per-node solvers: the returned ``(n,)``
    window vector feeds :func:`~repro.bianchi.batched.solve_heterogeneous_batch`
    directly, which is how the mean-field solution is validated on
    down-sampled instances.  Counts must be integers here (a per-node
    vector has no fractional nodes).
    """
    w = np.asarray(type_windows, dtype=float)
    n = np.asarray(type_counts)
    if w.ndim != 1 or n.shape != w.shape:
        raise ParameterError(
            "expand_types takes matching 1-D type windows and counts"
        )
    counts_float = np.asarray(n, dtype=float)
    if np.any(np.abs(counts_float - np.round(counts_float)) > 1e-9):
        raise ParameterError(
            f"expand_types requires integer counts, got {n!r}"
        )
    ints = np.round(counts_float).astype(np.int64)
    if np.any(ints < 1):
        raise ParameterError(f"type counts must be >= 1, got {n!r}")
    return np.repeat(w, ints)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class _Solved(NamedTuple):
    """Engine output; the fields of both public result types."""

    tau: FloatArray
    collision: FloatArray
    residual: FloatArray
    iterations: IntArray
    newton: BoolArray


def _start(initial_tau: object, w: FloatArray) -> FloatArray:
    """The first iterate: a clamped warm start, or 0.1 everywhere."""
    if initial_tau is None:
        return np.full_like(w, 0.1)
    try:
        tau = np.array(np.broadcast_to(np.asarray(initial_tau, dtype=float), w.shape))
    except (TypeError, ValueError) as error:
        raise ParameterError(
            f"initial_tau must broadcast to shape {w.shape!r}: {error}"
        ) from error
    if not np.all(np.isfinite(tau)):
        raise ParameterError(f"initial_tau must be finite, got {initial_tau!r}")
    return np.clip(tau, _TAU_MIN, _TAU_MAX)


def _solve_types(
    w: FloatArray,
    counts: Optional[FloatArray],
    max_stage: int,
    max_iterations: int,
    initial_tau: object,
    kind: str,
) -> _Solved:
    """Solve ``B`` validated ``(B, K)`` type systems; ``kind`` labels obs.

    Anderson(m=1)-accelerated damped sweeps with per-instance
    convergence masks (a converged lane is compacted out and stops
    updating), a vectorized damped Newton for the lanes that exhaust
    ``max_iterations``, then one residual check, probability contract
    and set of ``bianchi.*`` observations for the whole batch.

    ``counts=None`` solves the per-node system: one node per type.
    """
    _check_max_stage(max_stage)
    tau = _start(initial_tau, w)
    if counts is None:
        # Unit counts in the start iterate's memory order, so the final
        # coupling sums log1p(-tau) in the same order as a per-node
        # product would (numpy's reduction order follows the layout).
        counts = np.ones_like(tau)
    n_batch = w.shape[0]

    if bool(np.all(counts.sum(axis=-1) <= 1.0 + 1e-12)):
        # A lone node never collides: tau = tau(W, 0) exactly.
        if _obs_enabled():
            _obs_inc("bianchi.solves", n_batch, kind=kind)
            _obs_inc("bianchi.method", n_batch, method="closed-form")
        return _Solved(
            tau=_tau_unchecked(w, np.zeros_like(w), max_stage),
            collision=np.zeros_like(w),
            residual=np.zeros(n_batch),
            iterations=np.zeros(n_batch, dtype=np.int64),
            newton=np.zeros(n_batch, dtype=bool),
        )

    iterations = np.zeros(n_batch, dtype=np.int64)
    active = np.arange(n_batch)
    x = tau.copy()
    # Anderson(1) history of the active lanes.
    x_prev: Optional[FloatArray] = None
    f_prev: Optional[FloatArray] = None

    for sweep in range(1, max_iterations + 1):
        p_act = type_collision_probabilities(x, counts[active])
        f = _tau_unchecked(w[active], p_act, max_stage) - x
        if f_prev is None:
            x_next = x + _DAMPING * f
        else:
            df = f - f_prev
            num = (f * df).sum(axis=-1)
            den = (df * df).sum(axis=-1)
            # Exact-zero guard against division, not a tolerance check.
            safe_den = np.where(den == 0.0, 1.0, den)  # repro: noqa=REPRO003
            gamma = num / safe_den
            usable = (den != 0.0) & np.isfinite(gamma) & (  # repro: noqa=REPRO003
                np.abs(gamma) <= _GAMMA_LIMIT
            )
            gamma = np.where(usable, gamma, 0.0)[:, None]
            x_next = x + _DAMPING * f - gamma * (x - x_prev + _DAMPING * df)
        x_next = np.clip(x_next, _TAU_MIN, _TAU_MAX)
        delta = np.max(np.abs(x_next - x), axis=-1)
        iterations[active] = sweep
        converged = delta < _TOL
        tau[active] = x_next
        if np.all(converged):
            active = active[:0]
            break
        keep = ~converged
        active = active[keep]
        x_prev = x[keep]
        f_prev = f[keep]
        x = x_next[keep]

    newton = np.zeros(n_batch, dtype=bool)
    if active.size:
        tau[active] = _newton_fallback(
            w[active], counts[active], tau[active], max_stage
        )
        newton[active] = True

    p = type_collision_probabilities(tau, counts)
    residual = np.max(np.abs(tau - _tau_unchecked(w, p, max_stage)), axis=-1)
    worst = float(residual.max())
    if worst > _RESIDUAL_LIMIT:
        index = int(residual.argmax())
        raise ConvergenceError(
            f"{kind} fixed point residual {worst:.3e} exceeds tolerance "
            f"for windows={w[index]!r} counts={counts[index]!r} "
            f"(batch instance {index})"
        )
    if checks_enabled():
        # Theorem 2 rests on tau, p being probabilities; catch a
        # numerically corrupted batch before it contaminates the
        # utility/equilibrium layers.
        check_probability(tau, "tau")
        check_probability(p, "collision")
    if _obs_enabled():
        newton_count = int(newton.sum())
        _obs_inc("bianchi.solves", n_batch, kind=kind)
        if n_batch > newton_count:
            _obs_inc(
                "bianchi.method", n_batch - newton_count, method="anderson"
            )
        if newton_count:
            _obs_inc("bianchi.method", newton_count, method="newton")
            _obs_inc("bianchi.fallbacks", newton_count, method="newton")
        _obs_observe_many("bianchi.iterations", iterations.tolist(), kind=kind)
    return _Solved(
        tau=tau, collision=p, residual=residual, iterations=iterations,
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
    w: FloatArray, counts: FloatArray, tau0: FloatArray, max_stage: int
) -> FloatArray:
    """Vectorized damped Newton on ``F(x) = x - tau(W, p(x))`` over types.

    The Jacobian is ``J = I - (dtau/dp) (dp/dx)`` with
    ``dp_k/dx_j = (1 - p_k)(n_j - delta_kj) / (1 - x_j)`` - a ``(B, K, K)``
    stack solved with batched ``numpy.linalg.solve``, so the fallback
    stays population-independent like the iteration itself.  A
    step-halving line search keeps the residual monotone.
    """
    k = w.shape[-1]
    x = np.clip(tau0, 1e-6, 1.0 - 1e-6)
    eye = np.eye(k)

    def residual_vec(values: FloatArray) -> FloatArray:
        return values - _tau_unchecked(
            w, type_collision_probabilities(values, counts), max_stage
        )

    f = residual_vec(x)
    for _ in range(_NEWTON_MAX_ITER):
        norms = np.max(np.abs(f), axis=-1)
        if float(norms.max()) < _TOL:
            break
        p = type_collision_probabilities(x, counts)
        series = np.zeros_like(p)
        power = np.ones_like(p)
        for _j in range(max_stage):
            power = power * (2.0 * p)
            series += power
        series = 1.0 + series - power  # sum_{j=0}^{m-1} (2p)^j, via shift
        denom = 1.0 + w + p * w * series
        dtau_dp = -2.0 * w * _series_derivative(p, max_stage) / (denom * denom)
        # dp_k/dx_j = (1 - p_k)(n_j - delta_kj) / (1 - x_j).
        weights = counts[:, None, :] - eye[None, :, :]
        outer = (
            (dtau_dp * (1.0 - p))[:, :, None]
            * weights
            / (1.0 - x)[:, None, :]
        )
        jacobian = eye[None, :, :] - outer
        try:
            # (B, K) rhs must be a stack of column vectors, not one matrix.
            step = np.linalg.solve(jacobian, f[..., None])[..., 0]
        except np.linalg.LinAlgError as error:  # pragma: no cover - singular J
            raise ConvergenceError(
                f"Newton fallback hit a singular Jacobian: {error}"
            ) from error
        scale = np.ones((x.shape[0], 1))
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
# Solvers
# ----------------------------------------------------------------------
def solve_mean_field(
    type_windows: Union[Sequence[float], FloatArray],
    type_counts: Union[Sequence[float], FloatArray],
    max_stage: int,
    *,
    max_iterations: int = _DEFAULT_MAX_ITER,
) -> MeanFieldSolution:
    """Solve one population's type-distribution fixed point.

    Convenience wrapper promoting ``(K,)`` inputs to a batch of one; see
    :func:`solve_mean_field_batch` for the batched contract.
    """
    return solve_mean_field_batch(
        type_windows, type_counts, max_stage, max_iterations=max_iterations
    )


def solve_mean_field_batch(
    type_windows: Union[Sequence[Sequence[float]], FloatArray],
    type_counts: Union[Sequence[Sequence[float]], FloatArray],
    max_stage: int,
    *,
    max_iterations: int = _DEFAULT_MAX_ITER,
    initial_tau: Optional[FloatArray] = None,
) -> MeanFieldSolution:
    """Solve ``B`` type-distribution ``(tau, p)`` systems in one call.

    The cost of one sweep is O(B x K) whatever the population: a
    million-node instance with 8 types iterates 8-vectors.  The
    iteration is Anderson(m=1)-accelerated damped sweeps with
    per-instance convergence masks (tolerance ``1e-12`` on the max-norm
    tau update); instances that exhaust the budget go through a
    vectorized damped Newton on the ``(B, K, K)`` Jacobian.

    Parameters
    ----------
    type_windows:
        Per-type windows, shape ``(B, K)`` (a single ``(K,)`` vector is
        promoted to ``B = 1``).  Types need not be distinct - duplicate
        windows are solved as separate types with identical results.
    type_counts:
        Nodes per type, same shape, each positive.  Real values are
        accepted (replicator dynamics pass fractional populations);
        integer counts make the solution exactly the per-node fixed
        point of the expanded population.
    max_stage:
        Maximum backoff stage ``m >= 0`` (shared by all types and
        instances).
    max_iterations:
        Fixed-point budget per instance before the Newton fallback.
    initial_tau:
        Optional finite warm start that broadcasts to ``(B, K)``, such
        as a ``(K,)`` vector; it is clamped into ``(0, 1)``.

    Returns
    -------
    MeanFieldSolution

    Raises
    ------
    ParameterError
        On invalid windows, counts, ``max_stage`` or warm start.
    ConvergenceError
        If some instance's residual exceeds ``1e-8`` even after the
        Newton fallback.
    """
    w, counts = _validate_types(type_windows, type_counts)
    solved = _solve_types(
        w, counts, max_stage, max_iterations, initial_tau, "mean-field"
    )
    return MeanFieldSolution(
        type_windows=w, type_counts=counts, **solved._asdict()
    )


# ----------------------------------------------------------------------
# Channel statistics and utilities, O(K)
# ----------------------------------------------------------------------
def mean_field_statistics(
    type_windows: Union[Sequence[float], FloatArray],
    type_counts: Union[Sequence[float], FloatArray],
    max_stage: int,
    params: PhyParameters,
    times: SlotTimes,
    *,
    ignore_cost: bool = False,
) -> MeanFieldStatistics:
    """Channel statistics and per-type utilities of one population.

    Solves the mean-field fixed point, then evaluates the Section III
    slot statistics and the per-type utility rate
    ``u_k = tau_k ((1 - p_k) g - e) / E[slot]`` - everything O(K),
    matching :func:`repro.game.utility.stage_outcome` on expanded
    integer-count populations to floating-point noise.

    Parameters
    ----------
    type_windows, type_counts, max_stage:
        The population, as in :func:`solve_mean_field`.
    params:
        Model constants (supplies ``g``, ``e`` and payload time).
    times:
        Slot durations for the access mode in play.
    ignore_cost:
        Drop the energy term (the paper's ``g >> e`` approximation).
    """
    solution = solve_mean_field(type_windows, type_counts, max_stage)
    tau = solution.tau[0]
    p = solution.collision[0]
    counts = solution.type_counts[0]

    log_idle = float((counts * np.log1p(-tau)).sum())
    p_idle = float(np.exp(log_idle))
    p_tr = 1.0 - p_idle
    # Per-type single-success probability: tau_k * prod_{others}(1-tau) =
    # tau_k (1 - p_k); aggregate over the population with the counts.
    per_type_success = tau * (1.0 - p)
    p_single = float((counts * per_type_success).sum())
    expected_slot = (
        p_idle * times.idle_us
        + p_single * times.success_us
        + (p_tr - p_single) * times.collision_us
    )
    if expected_slot <= 0:
        raise ParameterError("expected slot duration must be positive")
    cost = 0.0 if ignore_cost else params.cost
    utilities = tau * ((1.0 - p) * params.gain - cost) / expected_slot
    throughput = p_single * params.payload_time_us / expected_slot
    if checks_enabled():
        check_probability(throughput, "throughput", tol=1e-6)
    return MeanFieldStatistics(
        p_idle=p_idle,
        p_transmission=p_tr,
        p_success_slot=p_single,
        expected_slot_us=expected_slot,
        throughput=throughput,
        type_utilities=utilities,
    )
