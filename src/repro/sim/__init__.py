"""Slot-accurate saturated-DCF simulator (the paper's NS-2 stand-in).

The paper validates its analytical model against NS-2.  This subpackage
replaces NS-2 with a from-scratch simulator at exactly the abstraction
level of the analysis (see DESIGN.md for the substitution argument):

* :mod:`repro.sim.node` - per-node binary-exponential-backoff state
  machine;
* :mod:`repro.sim.engine` - single-collision-domain simulator in Bianchi's
  virtual-slot time base (idle slot / success / collision), event-advanced
  so long backoffs cost O(1);
* :mod:`repro.sim.metrics` - per-node and channel counters with
  estimators for ``tau``, ``p``, throughput and payoff;
* :mod:`repro.sim.vectorized` - struct-of-arrays kernel with a batch
  axis: statistically equivalent to the reference engine but runs many
  replicas / grid points per call at 10-40x the slot throughput
  (``run_batch``), running its inner loop on the one simulator kernel
  of :mod:`repro.backends` (compiled where a C compiler is at hand, the
  numpy loop otherwise, bit-identical either way), plus the
  ``simulate`` engine dispatch;
* :mod:`repro.sim.streaming` - Welford accumulators folding
  per-interval estimates out of chunked runs in ``O(batch x n)``
  memory;
* :mod:`repro.sim.adaptive` - the per-node "best CW" measurement used for
  the simulated columns of Tables II/III;
* :mod:`repro.sim.spatial` - spatial slot-synchronous multi-hop simulator
  with carrier sensing and hidden terminals (Section VI validation).

The object-per-node :class:`DcfSimulator` stays the *reference*
implementation: it is the literal transcription of the paper's state
machine and the ground truth the vectorized kernel is tested against.
"""

from repro.sim.node import BackoffNode
from repro.sim.engine import DcfSimulator, SimulationResult
from repro.sim.metrics import ChannelCounters, NodeCounters
from repro.sim.adaptive import PerNodeOptimum, measure_per_node_optimum
from repro.sim.spatial import SpatialResult, SpatialSimulator
from repro.sim.streaming import StreamingStats, WelfordAccumulator
from repro.sim.vectorized import BatchResult, run_batch, simulate

__all__ = [
    "BackoffNode",
    "BatchResult",
    "ChannelCounters",
    "DcfSimulator",
    "NodeCounters",
    "PerNodeOptimum",
    "SimulationResult",
    "SpatialResult",
    "SpatialSimulator",
    "StreamingStats",
    "WelfordAccumulator",
    "measure_per_node_optimum",
    "run_batch",
    "simulate",
]
