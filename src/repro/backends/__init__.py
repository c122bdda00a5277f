"""The single-domain DCF simulator kernel.

Every vectorized simulation (:func:`repro.sim.vectorized.run_batch`)
runs one kernel, :mod:`repro.backends.numpy_backend`, on one seeded
:class:`numpy.random.Generator` stream per run.  Where a C compiler and
a safe compile cache are at hand its events run in a compiled replay of
the loop (built by :mod:`repro.backends.cnative_backend`), bit for bit;
otherwise the loop itself runs.  The choice is observed, never set: the
replay runs whenever it builds and loads and the batch's largest
backoff bound ``W << m`` is below ``2**32``.  Seeded results are
identical on either path, and :func:`kernel_note` says which one this
process takes and why.
"""

from __future__ import annotations

from repro.backends.numpy_backend import (
    COUNTER_UNSET,
    SimChunkState,
    kernel_note,
    sim_chunk,
)

__all__ = [
    "COUNTER_UNSET",
    "SimChunkState",
    "default_backend_name",
    "kernel_note",
    "sim_chunk",
]


def default_backend_name() -> str:
    """The name of the one simulator kernel, ``"numpy"``.

    Benchmark host fingerprints record it next to the library versions.
    """
    return "numpy"
