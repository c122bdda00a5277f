"""Per-node backoff Markov chain (paper Section III, Figure 1).

Each saturated node runs binary exponential backoff: after choosing a
uniform backoff counter in ``{0, ..., 2^j W - 1}`` at stage ``j`` it counts
down one slot at a time; a successful transmission resets the stage to 0, a
collision (probability ``p``, assumed independent per attempt) doubles the
window up to stage ``m``.  States are pairs ``(j, k)`` of backoff stage and
remaining counter.

The closed forms implemented here are equations (1)-(2) of the paper:

``q(j, 0) = p^j q(0, 0)`` for ``j < m`` and
``q(m, 0) = p^m / (1 - p) q(0, 0)``;

``q(0,0) = 2 (1 - 2p)(1 - p) / ((1 - 2p)(W + 1) + p W (1 - (2p)^m))``;

``tau = 2 / (1 + W + p W * sum_{j=0}^{m-1} (2p)^j)``.

The degenerate discount ``p = 1/2`` makes ``1 - 2p`` vanish; the closed
forms are continuous there and we evaluate the geometric sums directly, so
no special-casing is needed for ``tau``; ``q(0,0)`` uses the limit form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple, Union, overload

import numpy as np

from repro.typealiases import FloatArray
from repro.errors import ParameterError

__all__ = [
    "BackoffChain",
    "stationary_distribution",
    "transmission_probability",
]


def _check_max_stage(max_stage: int) -> None:
    if max_stage < 0:
        raise ParameterError(f"max_stage must be >= 0, got {max_stage!r}")


def _validate(window: float, collision_probability: float, max_stage: int) -> None:
    if window < 1:
        raise ParameterError(f"window must be >= 1, got {window!r}")
    if not 0 <= collision_probability < 1:
        raise ParameterError(
            "collision_probability must lie in [0, 1), got "
            f"{collision_probability!r}"
        )
    _check_max_stage(max_stage)


def _geometric_sum(ratio: float, terms: int) -> float:
    """``sum_{j=0}^{terms-1} ratio^j`` evaluated stably (handles ratio=1)."""
    if terms <= 0:
        return 0.0
    if abs(ratio - 1.0) < 1e-12:
        return float(terms)
    return (1.0 - ratio**terms) / (1.0 - ratio)


def _geometric_sum_array(ratio: FloatArray, terms: int) -> FloatArray:
    """Elementwise :func:`_geometric_sum` with the same ``ratio = 1`` guard."""
    if terms <= 0:
        return np.zeros_like(ratio)
    near_one = np.abs(ratio - 1.0) < 1e-12
    safe = np.where(near_one, 2.0, ratio)
    return np.where(near_one, float(terms), (1.0 - safe**terms) / (1.0 - safe))


def _tau_unchecked(w: FloatArray, p: FloatArray, max_stage: int) -> FloatArray:
    """Equation (2) on arrays, without validation.

    The fixed-point sweeps evaluate ``tau(W, p)`` thousands of times per
    solve; their windows and ``max_stage`` are checked once at the
    public boundary and ``p`` is clamped to ``[0, P_MAX]`` by
    construction, so revalidating every sweep would only add cost.
    """
    series = _geometric_sum_array(2.0 * p, max_stage)
    result: FloatArray = 2.0 / (1.0 + w + p * w * series)
    return result


def _validate_arrays(
    window: FloatArray, collision_probability: FloatArray, max_stage: int
) -> None:
    if np.any(window < 1):
        raise ParameterError(f"window must be >= 1, got {window!r}")
    if np.any(collision_probability < 0) or np.any(collision_probability >= 1):
        raise ParameterError(
            "collision_probability must lie in [0, 1), got "
            f"{collision_probability!r}"
        )
    _check_max_stage(max_stage)


@overload
def transmission_probability(
    window: float, collision_probability: float, max_stage: int
) -> float: ...


@overload
def transmission_probability(
    window: FloatArray,
    collision_probability: Union[float, FloatArray],
    max_stage: int,
) -> FloatArray: ...


def transmission_probability(
    window: Union[float, FloatArray],
    collision_probability: Union[float, FloatArray],
    max_stage: int,
) -> Union[float, FloatArray]:
    """``tau(W, p)``: probability a node transmits in a random slot.

    This is equation (2) of the paper, written through the geometric sum so
    it is well defined at ``p = 1/2``::

        tau = 2 / (1 + W + p W * sum_{j=0}^{m-1} (2p)^j)

    Accepts scalars or arrays; array arguments broadcast against each other
    and return an array (the batched solvers evaluate whole ``(B, n)``
    window/collision grids in one call).  The scalar path is unchanged and
    bit-compatible with earlier revisions.

    Parameters
    ----------
    window:
        Initial contention window ``W`` (stage-0 window size).  Real values
        are accepted so optimisers can relax the integrality of CW.
    collision_probability:
        Conditional collision probability ``p`` seen by this node.
    max_stage:
        Maximum backoff stage ``m``.
    """
    if np.ndim(window) == 0 and np.ndim(collision_probability) == 0:
        w_scalar = float(window)  # type: ignore[arg-type]
        p_scalar = float(collision_probability)  # type: ignore[arg-type]
        _validate(w_scalar, p_scalar, max_stage)
        series = _geometric_sum(2.0 * p_scalar, max_stage)
        return 2.0 / (1.0 + w_scalar + p_scalar * w_scalar * series)
    w = np.asarray(window, dtype=float)
    p = np.asarray(collision_probability, dtype=float)
    _validate_arrays(w, p, max_stage)
    return _tau_unchecked(w, p, max_stage)


@dataclass(frozen=True)
class BackoffChain:
    """The backoff Markov chain of one node.

    Attributes
    ----------
    window:
        Stage-0 contention window ``W``.
    collision_probability:
        Conditional collision probability ``p``.
    max_stage:
        Maximum number of window doublings ``m``.
    """

    window: float
    collision_probability: float
    max_stage: int

    def __post_init__(self) -> None:
        _validate(self.window, self.collision_probability, self.max_stage)

    # ------------------------------------------------------------------
    def stage_window(self, stage: int) -> float:
        """Contention window ``2^j W`` at backoff stage ``j`` (capped at m)."""
        if stage < 0:
            raise ParameterError(f"stage must be >= 0, got {stage!r}")
        return float(2 ** min(stage, self.max_stage)) * self.window

    @property
    def q00(self) -> float:
        """Stationary probability of state ``(0, 0)``.

        Uses the paper's closed form away from ``p = 1/2`` and the
        continuous limit at ``p = 1/2``.
        """
        p = self.collision_probability
        m = self.max_stage
        # Normalisation: sum over stages of q(j,0) * (Wj + 1) / 2, with the
        # final stage absorbing the geometric tail.  This is the paper's
        # closed form
        #   q00 = 2(1-2p)(1-p) / ((1-2p)(W+1) + pW(1-(2p)^m))
        # written as a direct sum so it stays finite at p = 1/2.
        stage_mass = 0.0
        for j in range(m):
            stage_mass += p**j * (self.stage_window(j) + 1.0)
        tail = p**m / (1.0 - p)
        stage_mass += tail * (self.stage_window(m) + 1.0)
        return 2.0 / stage_mass

    def transmission_probability(self) -> float:
        """``tau``: probability of transmitting in a random slot."""
        return transmission_probability(
            self.window, self.collision_probability, self.max_stage
        )

    def stage_probabilities(self) -> FloatArray:
        """Probability ``q(j, 0)`` of attempting at each stage ``j``.

        Returns an array of length ``max_stage + 1``; its sum equals
        ``tau``.
        """
        p = self.collision_probability
        q00 = self.q00
        probs = np.empty(self.max_stage + 1, dtype=float)
        for j in range(self.max_stage):
            probs[j] = p**j * q00
        probs[self.max_stage] = p**self.max_stage / (1.0 - p) * q00
        return probs

    def mean_attempts_per_packet(self) -> float:
        """Expected number of transmission attempts per packet, 1/(1-p)."""
        return 1.0 / (1.0 - self.collision_probability)


def stationary_distribution(chain: BackoffChain) -> Dict[Tuple[int, int], float]:
    """Full stationary distribution ``q(j, k)`` of the backoff chain.

    The counter marginal within stage ``j`` decreases linearly with ``k``
    (equation (1) of the paper, after summing the uniform re-entries)::

        q(j, k) = q(j, 0) * (Wj - k) / Wj,   Wj = 2^min(j, m) W.

    Returns
    -------
    dict
        Mapping from ``(stage, counter)`` to stationary probability; the
        values sum to 1 (up to floating point error).

    Notes
    -----
    The state space has ``sum_j 2^j W`` states, so this is intended for
    inspection and testing with moderate ``W``; the analytical pipeline
    never materialises it.
    """
    window = chain.window
    if abs(window - round(window)) > 1e-9:
        raise ParameterError(
            "stationary_distribution requires an integer window, got "
            f"{window!r}"
        )
    stage_probs = chain.stage_probabilities()
    dist: Dict[Tuple[int, int], float] = {}
    for stage in range(chain.max_stage + 1):
        wj = int(chain.stage_window(stage))
        qj0 = stage_probs[stage]
        for counter in range(wj):
            dist[(stage, counter)] = qj0 * (wj - counter) / wj
    return dist
