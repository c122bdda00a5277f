"""Streaming (Welford) statistics for chunked simulator runs.

When :func:`repro.sim.vectorized.run_batch` is given a
``stats_interval``, the kernel advances in chunks of that many virtual
slots and, after each chunk, folds the *interval* estimates (per-node
``tau`` and collision probability, per-replica throughput) into the
online accumulators defined here.  The state carried between chunks is
``O(batch x n)`` - mean and M2 arrays per estimator - so time-resolved
statistics (means and across-interval variances) come out of a run
without ever materialising an array with a slots-sized axis; the
regression test ``tests/unit/test_streaming_memory.py`` pins that bound
with ``tracemalloc``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "StreamingStats",
    "WelfordAccumulator",
    "interval_estimates",
]


@dataclass
class WelfordAccumulator:
    """Online mean/variance over a stream of equally-shaped samples.

    The classic numerically stable update: per observed array, keep the
    running count, mean and sum of squared deviations (``M2``).  Memory
    is two arrays of the sample's shape, independent of how many samples
    are folded in.
    """

    count: int = 0
    mean: Optional[Any] = None
    _m2: Optional[Any] = None

    def update(self, sample: Any) -> None:
        """Fold one sample array into the running moments."""
        if self.count == 0:
            self.mean = np.zeros_like(sample)
            self._m2 = np.zeros_like(sample)
        self.count += 1
        delta = sample - self.mean
        self.mean = self.mean + delta / self.count
        self._m2 = self._m2 + delta * (sample - self.mean)

    def merge(self, other: "WelfordAccumulator") -> None:
        """Fold another accumulator's moments into this one in place.

        The parallel-combination formula (Chan et al.): with counts
        ``na``/``nb``, means and ``M2`` from two disjoint sample
        streams,

        ``mean = mean_a + delta nb / (na + nb)``,
        ``M2 = M2_a + M2_b + delta^2 na nb / (na + nb)``,

        where ``delta = mean_b - mean_a``.  The result is exactly the
        accumulator a single observer would hold after seeing both
        streams, so sharded observers (e.g. the population screening
        pipeline splitting chunks across monitors) can combine without
        revisiting samples.  Merging an empty accumulator is a no-op;
        merging into an empty one copies ``other``.
        """
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean + np.zeros_like(other.mean)
            self._m2 = other._m2 + np.zeros_like(other._m2)
            return
        count = self.count + other.count
        delta = other.mean - self.mean
        self.mean = self.mean + delta * (other.count / count)
        self._m2 = (
            self._m2
            + other._m2
            + delta * delta * (self.count * other.count / count)
        )
        self.count = count

    def variance(self) -> Any:
        """Unbiased across-sample variance (zeros until two samples)."""
        if self.count == 0:
            raise SimulationError("no samples folded into accumulator")
        if self.count < 2:
            return np.zeros_like(self.mean)
        return self._m2 / (self.count - 1)

    def std(self) -> Any:
        """Across-sample standard deviation."""
        return np.sqrt(self.variance())


@dataclass
class StreamingStats:
    """Per-interval estimator moments of one chunked simulator run.

    Attributes
    ----------
    interval_slots:
        Virtual slots per interval (the run's ``stats_interval``; the
        final interval may be shorter when it does not divide
        ``n_slots``).
    tau:
        Per-node ``tau`` interval estimates, shape ``(batch, n)``.
    collision:
        Per-node conditional collision interval estimates, same shape.
    throughput:
        Per-replica normalized throughput interval estimates, shape
        ``(batch,)``.
    """

    interval_slots: int
    tau: WelfordAccumulator = field(default_factory=WelfordAccumulator)
    collision: WelfordAccumulator = field(
        default_factory=WelfordAccumulator
    )
    throughput: WelfordAccumulator = field(
        default_factory=WelfordAccumulator
    )

    @property
    def n_intervals(self) -> int:
        """Number of intervals folded in so far."""
        return self.tau.count

    def fold(
        self, tau: Any, collision: Any, throughput: Any
    ) -> None:
        """Fold one interval's estimates into the accumulators."""
        self.tau.update(tau)
        self.collision.update(collision)
        self.throughput.update(throughput)


def interval_estimates(
    delta_attempts: Any,
    delta_successes: Any,
    delta_busy: Any,
    delta_slots: Any,
    idle_us: float,
    success_us: float,
    collision_us: float,
    payload_time_us: float,
) -> Tuple[Any, Any, Any]:
    """Estimates over one interval from counter deltas.

    Parameters are the differences of the cumulative kernel counters
    across one chunk: ``(batch, n)`` attempt/success deltas and
    ``(batch,)`` busy-slot and total-slot deltas, plus the slot-time
    constants.  Returns ``(tau, collision, throughput)`` with the same
    estimator definitions as the end-of-run batch estimates, restricted
    to the interval.
    """
    slots = delta_slots[:, None]
    tau = delta_attempts / slots
    delta_collisions = delta_attempts - delta_successes
    one = np.ones_like(delta_attempts)
    collision = np.where(
        delta_attempts > 0,
        delta_collisions / np.maximum(delta_attempts, one),
        np.zeros_like(tau),
    )
    success_slots = np.sum(delta_successes, axis=1)
    collision_slots = delta_busy - success_slots
    idle_slots = delta_slots - delta_busy
    elapsed_us = (
        idle_slots * idle_us
        + success_slots * success_us
        + collision_slots * collision_us
    )
    throughput = success_slots * payload_time_us / elapsed_us
    return tau, collision, throughput
