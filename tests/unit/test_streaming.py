"""Unit tests for the streaming (Welford) statistics layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError, SimulationError
from repro.phy.parameters import AccessMode, default_parameters
from repro.phy.timing import slot_times
from repro.sim.streaming import (
    StreamingStats,
    WelfordAccumulator,
    interval_estimates,
)
from repro.sim.vectorized import run_batch


@pytest.fixture(scope="module")
def params():
    return default_parameters()


class TestWelfordAccumulator:
    def test_matches_batch_moments(self):
        rng = np.random.default_rng(11)
        samples = rng.uniform(size=(13, 4, 3))
        acc = WelfordAccumulator()
        for sample in samples:
            acc.update(sample)
        assert acc.count == 13
        np.testing.assert_allclose(acc.mean, samples.mean(axis=0))
        np.testing.assert_allclose(
            acc.variance(), samples.var(axis=0, ddof=1)
        )
        np.testing.assert_allclose(
            acc.std(), samples.std(axis=0, ddof=1)
        )

    def test_single_sample_has_zero_variance(self):
        acc = WelfordAccumulator()
        acc.update(np.array([1.0, 2.0]))
        np.testing.assert_array_equal(acc.variance(), [0.0, 0.0])

    def test_empty_accumulator_raises(self):
        with pytest.raises(SimulationError):
            WelfordAccumulator().variance()

    def test_numerical_stability_at_large_offset(self):
        # The naive sum-of-squares formula loses everything at this
        # offset; Welford must not.
        rng = np.random.default_rng(5)
        samples = 1e9 + rng.normal(scale=1e-3, size=(64, 2))
        acc = WelfordAccumulator()
        for sample in samples:
            acc.update(sample)
        # numpy's two-pass variance is the yardstick; Welford's one-pass
        # result stays within ~1e-5 relative at this offset, where the
        # naive sum-of-squares formula would be pure cancellation noise.
        np.testing.assert_allclose(
            acc.variance(), samples.var(axis=0, ddof=1), rtol=1e-3
        )


class TestIntervalEstimates:
    def test_definitions(self, params):
        times = slot_times(params, AccessMode.BASIC)
        delta_attempts = np.array([[30.0, 10.0]])
        delta_successes = np.array([[24.0, 6.0]])
        delta_busy = np.array([36.0])
        delta_slots = np.array([1000.0])
        tau, collision, throughput = interval_estimates(
            delta_attempts,
            delta_successes,
            delta_busy,
            delta_slots,
            times.idle_us,
            times.success_us,
            times.collision_us,
            params.payload_time_us,
        )
        np.testing.assert_allclose(tau, [[0.03, 0.01]])
        np.testing.assert_allclose(collision, [[0.2, 0.4]])
        success_slots = 30.0
        collision_slots = 6.0
        elapsed = (
            (1000.0 - 36.0) * times.idle_us
            + success_slots * times.success_us
            + collision_slots * times.collision_us
        )
        np.testing.assert_allclose(
            throughput, [success_slots * params.payload_time_us / elapsed]
        )

    def test_zero_attempts_give_zero_collision(self, params):
        times = slot_times(params, AccessMode.BASIC)
        tau, collision, _ = interval_estimates(
            np.zeros((1, 3)),
            np.zeros((1, 3)),
            np.zeros(1),
            np.array([500.0]),
            times.idle_us,
            times.success_us,
            times.collision_us,
            params.payload_time_us,
        )
        np.testing.assert_array_equal(tau, np.zeros((1, 3)))
        np.testing.assert_array_equal(collision, np.zeros((1, 3)))


class TestRunBatchStreaming:
    def test_streaming_mean_matches_final_estimates(self, params):
        # Equal-length intervals: the Welford mean of the interval tau
        # estimates is algebraically the whole-run tau.
        n_slots, interval = 20_000, 1_000
        result = run_batch(
            [[32] * 5] * 3, params, AccessMode.BASIC,
            n_slots=n_slots, seed=9, stats_interval=interval,
        )
        stats = result.streaming
        assert stats is not None
        assert stats.interval_slots == interval
        assert stats.n_intervals == n_slots // interval
        np.testing.assert_allclose(stats.tau.mean, result.tau, atol=1e-12)
        assert float(np.all(stats.tau.variance() >= 0.0))

    def test_streaming_none_without_interval(self, params):
        result = run_batch(
            [32] * 4, params, AccessMode.BASIC, n_slots=2_000, seed=3
        )
        assert result.streaming is None

    def test_ragged_final_interval(self, params):
        result = run_batch(
            [32] * 4, params, AccessMode.BASIC,
            n_slots=2_500, seed=3, stats_interval=1_000,
        )
        assert result.streaming is not None
        assert result.streaming.n_intervals == 3

    def test_invalid_interval_rejected(self, params):
        with pytest.raises(ParameterError):
            run_batch(
                [32] * 4, params, AccessMode.BASIC,
                n_slots=2_000, seed=3, stats_interval=0,
            )

    def test_streaming_stats_fold_counts(self):
        stats = StreamingStats(interval_slots=100)
        for _ in range(4):
            stats.fold(
                np.full((2, 3), 0.1), np.full((2, 3), 0.2), np.full(2, 0.5)
            )
        assert stats.n_intervals == 4
        assert stats.collision.count == 4
        assert stats.throughput.count == 4
