"""Counters and estimators for simulator runs.

The simulator counts events; this module turns the raw counters into the
quantities the paper measures: per-node transmission probability ``tau``,
conditional collision probability ``p``, per-node payoff rate
``(n_s g - n_e e) / t_m`` (the measurement of Section V.C) and channel
throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Tuple

import numpy as np

from repro.typealiases import FloatArray
from repro.errors import SimulationError

__all__ = ["ChannelCounters", "NodeCounters", "batch_estimates"]


def batch_estimates(
    attempts: Any,
    successes: Any,
    collisions: Any,
    slots_done: Any,
    elapsed_us: Any,
    gain: float,
    cost: float,
    payload_time_us: float,
) -> Tuple[Any, Any, Any, Any]:
    """Vectorized end-of-run estimators on ``(batch, n)`` counter arrays.

    The batched counterpart of the :class:`ChannelCounters` estimator
    methods; returns ``(tau, collision, payoff_rates, throughput)``.
    """
    total = slots_done[:, None]
    tau = attempts / total
    one = np.ones_like(attempts)
    collision = np.where(
        attempts > 0,
        collisions / np.maximum(attempts, one),
        np.zeros_like(tau),
    )
    payoff_rates = (
        successes * gain - attempts * cost
    ) / elapsed_us[:, None]
    throughput = (
        np.sum(successes, axis=1) * payload_time_us / elapsed_us
    )
    return tau, collision, payoff_rates, throughput


@dataclass
class NodeCounters:
    """Per-node event counters of one simulation run.

    Attributes
    ----------
    attempts:
        Number of transmission attempts (``n_e`` in the paper's payoff
        measurement).
    successes:
        Number of successful transmissions (``n_s``).
    collisions:
        Number of attempts that collided.
    """

    attempts: int = 0
    successes: int = 0
    collisions: int = 0

    def check(self) -> None:
        """Internal consistency: attempts = successes + collisions."""
        if self.attempts != self.successes + self.collisions:
            raise SimulationError(
                f"inconsistent counters: {self.attempts} attempts vs "
                f"{self.successes} successes + {self.collisions} collisions"
            )

    def collision_probability(self) -> float:
        """Estimator of ``p``: collisions per attempt (0 if no attempts)."""
        if self.attempts == 0:
            return 0.0
        return self.collisions / self.attempts

    def payoff_rate(self, gain: float, cost: float, elapsed_us: float) -> float:
        """Measured payoff per microsecond, ``(n_s g - n_e e) / t_m``."""
        if elapsed_us <= 0:
            raise SimulationError(
                f"elapsed_us must be positive, got {elapsed_us!r}"
            )
        return (self.successes * gain - self.attempts * cost) / elapsed_us


@dataclass
class ChannelCounters:
    """Channel-level counters of one simulation run.

    Attributes
    ----------
    idle_slots, success_slots, collision_slots:
        Number of virtual slots of each outcome.
    elapsed_us:
        Total simulated wall time in microseconds.
    per_node:
        One :class:`NodeCounters` per node.
    """

    idle_slots: int = 0
    success_slots: int = 0
    collision_slots: int = 0
    elapsed_us: float = 0.0
    per_node: List[NodeCounters] = field(default_factory=list)

    @property
    def total_slots(self) -> int:
        """Total number of virtual slots simulated."""
        return self.idle_slots + self.success_slots + self.collision_slots

    def tau_estimates(self) -> FloatArray:
        """Per-node ``tau`` estimate: attempts per virtual slot."""
        total = self.total_slots
        if total == 0:
            raise SimulationError("no slots simulated")
        return np.array([node.attempts / total for node in self.per_node])

    def collision_estimates(self) -> FloatArray:
        """Per-node ``p`` estimate: collisions per attempt."""
        return np.array(
            [node.collision_probability() for node in self.per_node]
        )

    def payoff_rates(self, gain: float, cost: float) -> FloatArray:
        """Per-node measured payoff per microsecond."""
        return np.array(
            [
                node.payoff_rate(gain, cost, self.elapsed_us)
                for node in self.per_node
            ]
        )

    def throughput(self, payload_time_us: float) -> float:
        """Normalized throughput: payload airtime over elapsed time."""
        if self.elapsed_us <= 0:
            raise SimulationError("no time simulated")
        total_successes = sum(node.successes for node in self.per_node)
        return total_successes * payload_time_us / self.elapsed_us

    def check(self) -> None:
        """Cross-check node counters against channel counters."""
        for node in self.per_node:
            node.check()
        total_successes = sum(node.successes for node in self.per_node)
        if total_successes != self.success_slots:
            raise SimulationError(
                f"success slots ({self.success_slots}) disagree with node "
                f"successes ({total_successes})"
            )
