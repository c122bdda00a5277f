"""Bianchi-style Markov chain model of saturated IEEE 802.11 DCF.

This subpackage implements Section III of the paper: a two-dimensional
backoff Markov chain per node, generalised to *heterogeneous* contention
windows (each node may use its own ``W_i``), the coupled fixed point in
``(tau_1..tau_n, p_1..p_n)``, and the slot statistics / normalized
throughput built on top of its solution.
"""

from repro.bianchi.markov import (
    BackoffChain,
    stationary_distribution,
    transmission_probability,
)
from repro.bianchi.batched import (
    BatchedFixedPoint,
    SymmetricGridSolution,
    collision_probabilities,
    solve_heterogeneous_batch,
    solve_symmetric_grid,
)
from repro.bianchi.meanfield import (
    MeanFieldSolution,
    MeanFieldStatistics,
    expand_types,
    mean_field_statistics,
    solve_mean_field,
    solve_mean_field_batch,
    type_collision_probabilities,
)
from repro.bianchi.fixedpoint import (
    FixedPointSolution,
    SymmetricSolution,
    solve_heterogeneous,
    solve_symmetric,
    symmetric_cache_info,
)
from repro.bianchi.throughput import (
    SlotStatistics,
    normalized_throughput,
    slot_statistics,
)
from repro.bianchi.delay import (
    AccessDelay,
    access_delay_jitter,
    expected_access_delay,
    mean_backoff_slots,
)
from repro.bianchi.fairness import jain_index, throughput_shares

__all__ = [
    "AccessDelay",
    "BackoffChain",
    "BatchedFixedPoint",
    "FixedPointSolution",
    "MeanFieldSolution",
    "MeanFieldStatistics",
    "SlotStatistics",
    "SymmetricGridSolution",
    "SymmetricSolution",
    "access_delay_jitter",
    "collision_probabilities",
    "expand_types",
    "expected_access_delay",
    "jain_index",
    "mean_backoff_slots",
    "mean_field_statistics",
    "normalized_throughput",
    "throughput_shares",
    "slot_statistics",
    "solve_heterogeneous",
    "solve_heterogeneous_batch",
    "solve_mean_field",
    "solve_mean_field_batch",
    "solve_symmetric",
    "solve_symmetric_grid",
    "stationary_distribution",
    "symmetric_cache_info",
    "transmission_probability",
    "type_collision_probabilities",
]
