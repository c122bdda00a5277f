"""Vectorized struct-of-arrays DCF kernel with a batch axis.

:class:`repro.sim.engine.DcfSimulator` advances a Python list of
:class:`repro.sim.node.BackoffNode` objects one virtual slot at a time -
exact, readable, and the reference implementation - but every experiment
that sweeps windows or replicates runs pays the Python interpreter once
per node per busy slot.  This module holds the whole simulation state as
NumPy integer arrays of shape ``(batch, n_nodes)``:

* ``windows`` - per-node stage-0 contention windows;
* ``stage``   - current backoff stage ``j`` (capped at ``m``);
* ``counter`` - remaining backoff slots.

One kernel iteration advances **every replica in the batch** by its idle
stretch (a ``min`` over the node axis, exactly the event jump of the
reference engine) plus one busy slot (masked success/collision updates and
a single vectorized uniform redraw for all transmitters in the batch).
Cost therefore scales with the busy-event count of the *slowest* replica,
not with ``batch x slots``, which is what makes the Tables II/III grid
sweep one call instead of ``len(grid)`` serial runs.

The kernel is statistically equivalent to the reference engine - same
``(stage, counter)`` machine, same virtual-slot time base, same estimators
- but consumes its random stream in a different order, so matched seeds
give *distributionally* identical, not bit-identical, runs
(``tests/unit/test_sim_vectorized.py`` pins the equivalence against both
the reference engine and the :mod:`repro.bianchi` fixed point).

The inner loop is the one simulator kernel of :mod:`repro.backends`,
run compiled where a C compiler is at hand and as the numpy loop
otherwise, with bit-identical results.  It advances in *chunks*, and an
optional ``stats_interval`` folds per-interval estimates into streaming
Welford accumulators (:mod:`repro.sim.streaming`) so time-resolved
statistics never materialise a slots-sized axis.  A run without
``stats_interval`` is one chunk, which consumes the random stream in the
order every seeded artefact is pinned to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - circular at runtime only
    from repro.sim.engine import SimulationResult, SlotObserver

import numpy as np

from repro.typealiases import FloatArray, IntArray
from repro.backends import SimChunkState, sim_chunk
from repro.contracts import check_probability, check_window, checks_enabled
from repro.errors import ParameterError, SimulationError
from repro.obs import enabled as _obs_enabled
from repro.obs import span as _obs_span
from repro.obs.metrics import inc as _obs_inc
from repro.obs.metrics import rate_gauge as _obs_rate_gauge
from repro.phy.parameters import AccessMode, PhyParameters
from repro.phy.timing import SlotTimes, slot_times
from repro.sim.metrics import ChannelCounters, NodeCounters, batch_estimates
from repro.sim.streaming import StreamingStats, interval_estimates

__all__ = ["BatchResult", "run_batch", "simulate"]

SeedLike = Union[None, int, np.random.SeedSequence, np.random.Generator]


@dataclass(frozen=True)
class BatchResult:
    """Per-replica counters and estimates of one batched kernel run.

    All arrays carry the batch axis first; a single-replica run has
    ``batch = 1``.

    Attributes
    ----------
    windows:
        Simulated contention windows, shape ``(batch, n_nodes)``.
    attempts, successes, collisions:
        Per-node event counts, shape ``(batch, n_nodes)``.
    idle_slots, success_slots, collision_slots:
        Per-replica virtual-slot outcome counts, shape ``(batch,)``.
    elapsed_us:
        Per-replica simulated wall time in microseconds, shape
        ``(batch,)``.
    tau:
        Per-node ``tau`` estimates (attempts per virtual slot).
    collision:
        Per-node conditional collision probability estimates.
    payoff_rates:
        Per-node measured payoff per microsecond.
    throughput:
        Per-replica normalized channel throughput, shape ``(batch,)``.
    streaming:
        Per-interval Welford moments when the run was chunked with
        ``stats_interval``; ``None`` for single-chunk runs.
    """

    windows: FloatArray
    attempts: IntArray
    successes: IntArray
    collisions: IntArray
    idle_slots: IntArray
    success_slots: IntArray
    collision_slots: IntArray
    elapsed_us: FloatArray
    tau: FloatArray
    collision: FloatArray
    payoff_rates: FloatArray
    throughput: FloatArray
    streaming: Optional[StreamingStats] = None

    @property
    def batch_size(self) -> int:
        """Number of independent replicas simulated."""
        return int(self.windows.shape[0])

    @property
    def n_nodes(self) -> int:
        """Number of stations per replica."""
        return int(self.windows.shape[1])

    @property
    def total_slots(self) -> IntArray:
        """Per-replica total virtual slots simulated, shape ``(batch,)``."""
        return self.idle_slots + self.success_slots + self.collision_slots

    def replica_counters(self, index: int) -> ChannelCounters:
        """Materialise one replica's counters as :class:`ChannelCounters`.

        The returned object passes the same consistency checks as the
        reference engine's, so downstream consumers cannot tell the two
        implementations apart.
        """
        per_node = [
            NodeCounters(
                attempts=int(self.attempts[index, i]),
                successes=int(self.successes[index, i]),
                collisions=int(self.collisions[index, i]),
            )
            for i in range(self.n_nodes)
        ]
        counters = ChannelCounters(
            idle_slots=int(self.idle_slots[index]),
            success_slots=int(self.success_slots[index]),
            collision_slots=int(self.collision_slots[index]),
            elapsed_us=float(self.elapsed_us[index]),
            per_node=per_node,
        )
        counters.check()
        return counters


def _as_window_matrix(windows: Sequence[int] | IntArray) -> IntArray:
    """Coerce ``windows`` to an int64 ``(batch, n_nodes)`` matrix."""
    arr = np.asarray(windows)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2 or arr.size == 0:
        raise ParameterError(
            "windows must be a non-empty 1-D profile or 2-D batch of "
            f"profiles, got shape {arr.shape!r}"
        )
    if not np.issubdtype(arr.dtype, np.number):
        raise ParameterError(f"windows must be numeric, got {arr.dtype!r}")
    matrix = arr.astype(np.int64)
    if np.any(matrix != arr):
        raise ParameterError("windows must be integers")
    check_window(matrix, "windows")
    return matrix


def run_batch(
    windows: Sequence[int] | IntArray,
    params: PhyParameters,
    mode: AccessMode = AccessMode.BASIC,
    *,
    n_slots: int,
    seed: SeedLike = None,
    stats_interval: Optional[int] = None,
) -> BatchResult:
    """Simulate a batch of independent replicas with the vectorized kernel.

    Parameters
    ----------
    windows:
        Either one per-node window profile (shape ``(n_nodes,)``) or a
        batch of profiles (shape ``(batch, n_nodes)``); each row is one
        independent replica (e.g. one grid point of a window sweep).
    params:
        PHY/MAC constants; supplies ``m``, ``g``, ``e`` and payload time.
    mode:
        Channel access mode (decides ``Ts``/``Tc``).
    n_slots:
        Virtual slots (channel events) to simulate per replica.
    seed:
        ``None``, an int, a :class:`numpy.random.SeedSequence` or a
        :class:`numpy.random.Generator`.  One stream drives the whole
        batch; replicas are independent because their state arrays are.
    stats_interval:
        When set, run the kernel in chunks of this many virtual slots
        and fold per-interval estimates into streaming Welford
        accumulators (:attr:`BatchResult.streaming`).  Memory stays
        ``O(batch x n)`` regardless of ``n_slots``.

    Returns
    -------
    BatchResult
    """
    if n_slots < 1:
        raise ParameterError(f"n_slots must be >= 1, got {n_slots!r}")
    if stats_interval is not None and stats_interval < 1:
        raise ParameterError(
            f"stats_interval must be >= 1, got {stats_interval!r}"
        )
    window_matrix = np.ascontiguousarray(_as_window_matrix(windows))
    if not _obs_enabled():
        return _run_batch_impl(
            window_matrix,
            params,
            mode,
            n_slots=n_slots,
            seed=seed,
            stats_interval=stats_interval,
        )
    batch, n_nodes = window_matrix.shape
    with _obs_span(
        "sim.run_batch",
        engine="vectorized",
        batch=batch,
        n_nodes=n_nodes,
        n_slots=n_slots,
    ):
        with _obs_rate_gauge("sim.slots_per_sec", engine="vectorized") as probe:
            result = _run_batch_impl(
                window_matrix,
                params,
                mode,
                n_slots=n_slots,
                seed=seed,
                stats_interval=stats_interval,
            )
            probe.count = float(result.total_slots.sum())
        _obs_inc("sim.runs", batch, engine="vectorized")
        _obs_inc(
            "sim.slots", int(result.idle_slots.sum()),
            engine="vectorized", kind="idle",
        )
        _obs_inc(
            "sim.slots", int(result.success_slots.sum()),
            engine="vectorized", kind="success",
        )
        _obs_inc(
            "sim.slots", int(result.collision_slots.sum()),
            engine="vectorized", kind="collision",
        )
    return result


def _run_batch_impl(
    window_matrix: IntArray,
    params: PhyParameters,
    mode: AccessMode,
    *,
    n_slots: int,
    seed: SeedLike,
    stats_interval: Optional[int],
) -> BatchResult:
    """Drive the simulator kernel on a validated ``(batch, n)`` matrix."""
    batch, n_nodes = window_matrix.shape
    max_stage = params.max_backoff_stage
    times: SlotTimes = slot_times(params, mode)
    state = SimChunkState.allocate(
        batch, n_nodes, np.random.default_rng(seed)
    )

    streaming: Optional[StreamingStats] = None
    if stats_interval is None:
        # One chunk covering the whole budget: the stream order every
        # seeded artefact is pinned to.
        sim_chunk(window_matrix, max_stage, n_slots, state)
    else:
        streaming = StreamingStats(interval_slots=stats_interval)
        prev_attempts = state.attempts.copy()
        prev_successes = state.successes.copy()
        prev_busy = state.busy_count.copy()
        prev_slots = state.slots_done.copy()
        done = 0
        while done < n_slots:
            target = min(done + stats_interval, n_slots)
            sim_chunk(window_matrix, max_stage, target, state)
            tau_i, collision_i, throughput_i = interval_estimates(
                state.attempts - prev_attempts,
                state.successes - prev_successes,
                state.busy_count - prev_busy,
                state.slots_done - prev_slots,
                times.idle_us,
                times.success_us,
                times.collision_us,
                params.payload_time_us,
            )
            streaming.fold(tau_i, collision_i, throughput_i)
            prev_attempts[...] = state.attempts
            prev_successes[...] = state.successes
            prev_busy[...] = state.busy_count
            prev_slots[...] = state.slots_done
            done = target

    attempts = state.attempts
    successes = state.successes
    busy_count = state.busy_count
    slots_done = state.slots_done
    if np.any(slots_done < n_slots):
        raise SimulationError(  # pragma: no cover - kernel bug guard
            "the simulator kernel left lanes short of the slot budget"
        )
    if np.any(slots_done <= 0):
        raise SimulationError("no slots simulated")  # pragma: no cover

    # Every busy slot with exactly one transmitter was a success; all
    # slot-type totals and the elapsed time follow from the counters.
    collisions = attempts - successes
    success_slots = successes.sum(axis=1)
    collision_slots = busy_count - success_slots
    idle_slots = slots_done - busy_count
    elapsed_us = (
        idle_slots * times.idle_us
        + success_slots * times.success_us
        + collision_slots * times.collision_us
    )

    tau, collision_prob, payoff_rates, throughput = batch_estimates(
        attempts,
        successes,
        collisions,
        slots_done,
        elapsed_us,
        params.gain,
        params.cost,
        params.payload_time_us,
    )
    if checks_enabled():
        # One vectorized sweep over the estimators after the kernel
        # loops: O(batch * n) next to the O(events * n) simulation, so
        # the hot path is unaffected (and REPRO_CHECKS=0 removes even
        # this).
        check_probability(tau, "tau estimate")
        check_probability(collision_prob, "collision estimate")
        check_probability(throughput, "throughput", tol=1e-6)
    return BatchResult(
        windows=window_matrix.astype(float),
        attempts=attempts,
        successes=successes,
        collisions=collisions,
        idle_slots=idle_slots,
        success_slots=success_slots,
        collision_slots=collision_slots,
        elapsed_us=elapsed_us,
        tau=tau,
        collision=collision_prob,
        payoff_rates=payoff_rates,
        throughput=throughput,
        streaming=streaming,
    )


def simulate(
    windows: Sequence[int],
    params: PhyParameters,
    mode: AccessMode = AccessMode.BASIC,
    *,
    n_slots: int,
    seed: SeedLike = None,
    engine: str = "vectorized",
    observer: Optional[SlotObserver] = None,
) -> SimulationResult:
    """Run one single-collision-domain simulation on a selected engine.

    Dispatches between the reference object-per-node engine
    (:class:`repro.sim.engine.DcfSimulator`, ``engine="reference"``) and
    the vectorized kernel (``engine="vectorized"``); both return the same
    :class:`repro.sim.engine.SimulationResult` type, so call sites choose
    purely on speed.  An ``observer`` forces the reference engine - the
    vectorized kernel does not replay per-slot events.
    """
    if engine not in ("vectorized", "reference"):
        raise ParameterError(
            f"engine must be 'vectorized' or 'reference', got {engine!r}"
        )
    from repro.sim.engine import DcfSimulator, SimulationResult

    if engine == "reference" or observer is not None:
        simulator = DcfSimulator(windows, params, mode, seed=seed)
        return simulator.run(n_slots, observer=observer)

    batch = run_batch(
        np.asarray(list(windows)),
        params,
        mode,
        n_slots=n_slots,
        seed=seed,
    )
    counters = batch.replica_counters(0)
    return SimulationResult(
        counters=counters,
        windows=batch.windows[0],
        tau=counters.tau_estimates(),
        collision=counters.collision_estimates(),
        payoff_rates=counters.payoff_rates(params.gain, params.cost),
        throughput=counters.throughput(params.payload_time_us),
    )
