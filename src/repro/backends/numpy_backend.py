"""The numpy DCF simulator kernel: a vectorized loop and its compiled replay.

The batched struct-of-arrays kernel behind
:func:`repro.sim.vectorized.run_batch`.  Its protocol is *chunked*:
:func:`sim_chunk` advances every lane of a :class:`SimChunkState` to an
absolute virtual-slot target, mutating the state arrays in place, and
may be called again on the same state.  That is what lets the
streaming-statistics path (:mod:`repro.sim.streaming`) fold counters
into running Welford accumulators every ``interval`` slots without
materialising an array with a slots-sized axis.  One chunk covering the
whole slot budget consumes the run's random stream in the order every
seeded artefact (golden snapshots, Tables II/III, Figure sweeps) is
pinned to.

The loop's per-event numpy overhead dominates at paper shapes, so the
same events also run compiled: ``repro_numpy_chunk`` (C source built and
loaded by :func:`~repro.backends.cnative_backend.load_kernels`) replays
the loop bit for bit.  Uniform blocks are still drawn here with
``rng.random(block_size)``; the kernel hands control back whenever the
next event would overrun the block, and a fresh block is drawn exactly
where the loop draws it.  The tail's ``rng.integers(0, bound)`` draws
call the Generator's own bit generator through numpy's public
``bit_generator.ctypes`` interface, under ``bit_generator.lock``, with
numpy's unmasked Lemire rule for bounds below ``2**32``.  The loop stays
as the reference the tests pin the replay to, and runs when the replay
cannot be had (no compiler, an unsafe cache directory, a failed build
or load) or when a batch's largest bound ``W << max_stage`` reaches
``2**32``, past which numpy draws with its 64-bit rule.  Nothing selects
between the two paths; :func:`kernel_note` says which one runs.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.typealiases import FloatArray, IntArray
from repro.errors import BackendError
from repro.backends.cnative_backend import LazyKernels

__all__ = ["COUNTER_UNSET", "SimChunkState", "kernel_note", "sim_chunk"]

#: Sentinel value marking an uninitialised backoff counter; the first
#: chunk call draws the initial uniform backoff for sentinel entries.
COUNTER_UNSET = -1

#: The compiled replay draws ``Generator.integers(0, bound)`` only for
#: ``bound`` below this; numpy switches to its 64-bit rule at ``2**32``.
_REPLAY_BOUND_LIMIT = 1 << 32

#: The compiled replay, built and loaded by the first simulation.
_KERNELS = LazyKernels()


@dataclass
class SimChunkState:
    """Mutable per-run simulator state shared across chunk calls.

    All arrays are C-contiguous ``int64`` of shape ``(batch, n)`` or
    ``(batch,)``; ``rng`` is the run's one random stream.
    """

    stage: IntArray
    counter: IntArray
    attempts: IntArray
    successes: IntArray
    busy_count: IntArray
    slots_done: IntArray
    rng: np.random.Generator

    @classmethod
    def allocate(
        cls, batch: int, n_nodes: int, rng: np.random.Generator
    ) -> "SimChunkState":
        """Fresh state with sentinel counters (first chunk initialises)."""
        return cls(
            stage=np.zeros((batch, n_nodes), dtype=np.int64),
            counter=np.full((batch, n_nodes), COUNTER_UNSET, dtype=np.int64),
            attempts=np.zeros((batch, n_nodes), dtype=np.int64),
            successes=np.zeros((batch, n_nodes), dtype=np.int64),
            busy_count=np.zeros(batch, dtype=np.int64),
            slots_done=np.zeros(batch, dtype=np.int64),
            rng=rng,
        )


def kernel_note() -> str:
    """Which path runs the kernel in this process, and why not the other."""
    if _KERNELS.get() is not None:
        return "compiled kernel in use"
    return f"numpy loop in use: {_KERNELS.error}"


def _compiled_for(windows: IntArray, max_stage: int) -> Optional[ctypes.CDLL]:
    """The compiled replay when it can run this batch, else ``None``."""
    if int(windows.max()) << max_stage >= _REPLAY_BOUND_LIMIT:
        return None
    return _KERNELS.get()


def sim_chunk(
    windows: IntArray,
    max_stage: int,
    target_slots: int,
    state: SimChunkState,
) -> None:
    """Advance every lane of ``state`` to ``target_slots`` slots.

    Mutates the state arrays in place; lanes already at or past the
    target are untouched.  Counter entries equal to
    :data:`COUNTER_UNSET` are initialised from the stream before the
    first slot.
    """
    rng = state.rng
    if state.counter[0, 0] == COUNTER_UNSET:
        # First chunk: one vectorized uniform draw per node.
        state.counter[...] = rng.integers(0, windows, dtype=np.int64)

    # Backoff redraws consume one pre-drawn block of uniforms at a
    # time; ``floor(u * bound)`` on float64 uniforms is uniform on
    # ``{0, ..., bound-1}`` up to O(bound / 2^53) bias - immaterial
    # next to the Monte-Carlo noise of any finite run.
    batch, n_nodes = windows.shape
    block_size = max(1 << 16, 4 * batch * n_nodes)
    uniform_block = rng.random(block_size)
    kernel = _compiled_for(windows, max_stage)
    if kernel is None:
        _sim_loop(rng, windows, max_stage, target_slots, state, uniform_block)
    else:
        _replay(
            kernel, rng, windows, max_stage, target_slots, state,
            uniform_block,
        )


def _replay(
    kernel: ctypes.CDLL,
    rng: np.random.Generator,
    windows: IntArray,
    max_stage: int,
    target_slots: int,
    state: SimChunkState,
    uniform_block: FloatArray,
) -> None:
    """Run :func:`_sim_loop`'s events in ``repro_numpy_chunk``."""
    windows = np.ascontiguousarray(windows, dtype=np.int64)
    batch, n_nodes = windows.shape
    node_arrays = (
        state.stage, state.counter, state.attempts, state.successes
    )
    lane_arrays = (state.busy_count, state.slots_done)
    if any(a.shape != windows.shape for a in node_arrays) or any(
        a.shape != (batch,) for a in lane_arrays
    ):
        raise BackendError(
            "simulator state does not match the window matrix"
        )
    bit_generator = rng.bit_generator
    interface = bit_generator.ctypes
    scratch = np.empty(2 * batch, dtype=np.int64)
    while True:
        with bit_generator.lock:
            refill = kernel.repro_numpy_chunk(
                windows, batch, n_nodes, max_stage, target_slots,
                *node_arrays, *lane_arrays,
                uniform_block, uniform_block.size, scratch,
                interface.state_address, interface.next_uint32,
            )
        if not refill:
            return
        uniform_block = rng.random(uniform_block.size)


def _sim_loop(
    rng: np.random.Generator,
    windows: IntArray,
    max_stage: int,
    target_slots: int,
    state: SimChunkState,
    uniform_block: FloatArray,
) -> None:
    """The vectorized loop: the reference the compiled replay matches."""
    batch, n_nodes = windows.shape
    stage = state.stage
    counter = state.counter
    attempts = state.attempts
    successes = state.successes
    slots_done = state.slots_done
    block_size = uniform_block.size
    block_pos = 0

    # Flat views share memory with the 2-D state; scatter updates for
    # the (few) transmitters per slot avoid full-array np.where
    # temporaries.
    counter_flat = counter.ravel()
    stage_flat = stage.ravel()
    window_flat = windows.ravel()
    attempts_flat = attempts.ravel()
    successes_flat = successes.ravel()

    # ------------------------------------------------------------------
    # Fast path: every replica is mid-run, so no per-replica masking is
    # needed - each iteration advances the whole batch by one idle jump
    # plus one busy slot with ~20 full-vector ops.
    # ------------------------------------------------------------------
    fast_iterations = 0
    while True:
        jump = counter.min(axis=1)
        if np.any(jump >= target_slots - slots_done):
            break  # some replica exhausts its budget: tail path
        ready_idx = np.flatnonzero(counter == jump[:, np.newaxis])
        rows = ready_idx // n_nodes
        success_flags = np.bincount(rows, minlength=batch)[rows] == 1

        # A node index appears at most once per slot, so plain fancy
        # increments are safe (no np.add.at needed).
        attempts_flat[ready_idx] += 1
        successes_flat[ready_idx[success_flags]] += 1

        new_stage = np.minimum(stage_flat[ready_idx] + 1, max_stage)
        new_stage[success_flags] = 0
        stage_flat[ready_idx] = new_stage
        bounds = window_flat[ready_idx] << new_stage

        k = ready_idx.size
        if block_pos + k > block_size:
            uniform_block = rng.random(block_size)
            block_pos = 0
        draws = (
            uniform_block[block_pos : block_pos + k] * bounds
        ).astype(np.int64)
        block_pos += k

        jump_plus = jump + 1
        counter -= jump_plus[:, np.newaxis]
        counter_flat[ready_idx] = draws
        slots_done += jump_plus
        fast_iterations += 1
    state.busy_count += fast_iterations

    # ------------------------------------------------------------------
    # Tail path: replicas finish at different events; mask the
    # stragglers.  Not a short epilogue: lanes on a window grid run at
    # different event rates, so at Table II/III shapes 30-52% of all
    # iterations land here (the fast path stops when the first lane
    # runs out of slots).
    # ------------------------------------------------------------------
    active = slots_done < target_slots
    while active.any():
        jump = counter[active].min(axis=1)
        idle = np.minimum(jump, target_slots - slots_done[active])
        counter[active] -= idle[:, np.newaxis]
        slots_done[active] += idle

        # Replicas that still owe slots now have some counter at zero.
        busy = np.flatnonzero(slots_done < target_slots)
        if busy.size == 0:
            break
        sub_counter = counter[busy]
        ready = sub_counter == 0
        success = ready.sum(axis=1) == 1
        success_col = success[:, np.newaxis]
        attempts[busy] += ready
        successes[busy] += ready & success_col

        sub_stage = stage[busy]
        sub_stage = np.where(
            ready,
            np.where(success_col, 0, np.minimum(sub_stage + 1, max_stage)),
            sub_stage,
        )
        stage[busy] = sub_stage

        stage_window = windows[busy] << sub_stage
        draws = rng.integers(0, stage_window[ready], dtype=np.int64)
        new_counter = sub_counter - 1
        new_counter[ready] = draws
        counter[busy] = new_counter

        state.busy_count[busy] += 1
        slots_done[busy] += 1
        active = slots_done < target_slots
