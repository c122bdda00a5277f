"""Memory regression guard for the streaming statistics path.

The point of ``stats_interval`` is that interval estimates are folded
into Welford accumulators as the run advances, so *no array with a
slots axis is ever materialised*: memory stays ``O(batch x n)`` no
matter how many virtual slots the run covers.  This test pins that with
a ``tracemalloc`` bound on a ``10^5``-slot, ``n = 500`` run - any
regression that materialises even the smallest slots-axis artifact (a
``(batch, n_slots)`` float array) blows the bound by an order of
magnitude, and a ``(batch, n, slots)`` tensor by five.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.backends import kernel_note
from repro.phy.parameters import AccessMode, default_parameters
from repro.sim.vectorized import run_batch

BATCH = 2
N_NODES = 500
N_SLOTS = 100_000
STATS_INTERVAL = 10_000
STATE_ARRAYS = 8  # stage/counter/attempts/successes/... + lane counters

#: Allowed peak = 10x the O(batch x n) kernel state plus a fixed
#: allowance for transient (batch, n) interval estimates, accumulator
#: temporaries and tracemalloc's own bookkeeping.
STATE_BYTES = BATCH * N_NODES * 8 * STATE_ARRAYS
ALLOWANCE_BYTES = 512_000
SLOTS_AXIS_BYTES = BATCH * N_SLOTS * 8  # smallest possible slots-axis array


def test_streaming_run_allocates_no_slots_axis_array():
    note = kernel_note()
    if note != "compiled kernel in use":
        # The numpy loop takes about 17 s at this size.
        pytest.skip(note)
    params = default_parameters()
    windows = [[64] * N_NODES] * BATCH
    # Warm up outside the trace: the .so load and module-level caches
    # must not be billed to the streaming path.
    run_batch(
        windows, params, AccessMode.BASIC,
        n_slots=100, seed=1, stats_interval=50,
    )

    tracemalloc.start()
    try:
        result = run_batch(
            windows, params, AccessMode.BASIC,
            n_slots=N_SLOTS, seed=2, stats_interval=STATS_INTERVAL,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert result.streaming is not None
    assert result.streaming.n_intervals == N_SLOTS // STATS_INTERVAL

    bound = 10 * STATE_BYTES + ALLOWANCE_BYTES
    assert peak <= bound, (
        f"streaming run peaked at {peak:,} B tracked heap, over the "
        f"O(batch x n) bound of {bound:,} B - something is materialising "
        "per-slot state"
    )
    assert peak < SLOTS_AXIS_BYTES, (
        f"peak {peak:,} B exceeds the smallest slots-axis array "
        f"({SLOTS_AXIS_BYTES:,} B); the streaming path must never "
        "allocate one"
    )
