"""Single-collision-domain DCF simulator in virtual-slot time.

The simulator lives in exactly the time base of Bianchi's chain: a
*virtual slot* is one channel event - an idle slot (duration ``sigma``), a
successful transmission (``Ts``) or a collision (``Tc``).  Every node's
backoff counter decrements once per virtual slot, nodes with counter zero
transmit, and the outcome is decided by how many transmitted.  This makes
the simulator an exact sampler of the analytical model's process, so the
fixed-point predictions of :mod:`repro.bianchi` are its large-sample
limits - the property Tables II/III rely on.

Long idle stretches are event-advanced: the engine jumps straight to the
next slot in which some counter reaches zero, so simulation cost scales
with the number of *transmissions*, not slots.

This engine deliberately stays apart from the vectorized simulator
kernel (:mod:`repro.backends`): it is the statistical ground truth the
kernel's equivalence tests compare against, so it must never itself run
on the machinery under test.  Callers that want the fast path use
:func:`repro.sim.vectorized.run_batch` (or ``simulate`` with
``engine="vectorized"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence, Union

import numpy as np

from repro.typealiases import FloatArray
from repro.errors import ParameterError
from repro.obs import enabled as _obs_enabled
from repro.obs import span as _obs_span
from repro.obs.metrics import inc as _obs_inc
from repro.obs.metrics import rate_gauge as _obs_rate_gauge
from repro.phy.parameters import AccessMode, PhyParameters
from repro.phy.timing import SlotTimes, slot_times
from repro.sim.metrics import ChannelCounters, NodeCounters
from repro.sim.node import BackoffNode

__all__ = ["DcfSimulator", "SimulationResult", "SlotObserver"]


class SlotObserver(Protocol):
    """Structural type of a promiscuous per-slot observer.

    :class:`repro.detect.estimator.WindowObserver` is the canonical
    implementation; anything with these two methods can watch a run.
    """

    def record_idle(self, slots: int = 1) -> None:
        """Log ``slots`` idle virtual slots."""

    def record_transmission(
        self, transmitters: Sequence[int], success: bool
    ) -> None:
        """Log one busy virtual slot with its attempting nodes."""


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulator run.

    Attributes
    ----------
    counters:
        Raw channel and per-node counters.
    windows:
        The per-node contention windows simulated.
    tau:
        Per-node ``tau`` estimates.
    collision:
        Per-node conditional collision probability estimates.
    payoff_rates:
        Per-node measured payoff per microsecond,
        ``(n_s g - n_e e) / t``.
    throughput:
        Normalized channel throughput.
    """

    counters: ChannelCounters
    windows: FloatArray
    tau: FloatArray
    collision: FloatArray
    payoff_rates: FloatArray
    throughput: float


class DcfSimulator:
    """Simulate ``n`` saturated selfish nodes in one collision domain.

    Parameters
    ----------
    windows:
        Per-node contention windows (positive integers).
    params:
        PHY/MAC constants; supplies ``m``, ``g``, ``e`` and payload time.
    mode:
        Channel access mode (decides ``Ts``/``Tc``).
    seed:
        Seed for the simulation's random generator: ``None``, an int, a
        :class:`numpy.random.SeedSequence` or a ready-made
        :class:`numpy.random.Generator`.  Callers that replicate runs
        should spawn children from one root ``SeedSequence`` (see
        :mod:`repro.experiments.parallel`) so replicas use provably
        independent streams.

    Examples
    --------
    >>> from repro.phy import default_parameters
    >>> sim = DcfSimulator([78] * 5, default_parameters(), seed=1)
    >>> result = sim.run(50_000)
    >>> bool(abs(result.tau.mean() - 0.023) < 0.005)
    True
    """

    def __init__(
        self,
        windows: Sequence[int],
        params: PhyParameters,
        mode: AccessMode = AccessMode.BASIC,
        *,
        seed: Union[
            None, int, np.random.SeedSequence, np.random.Generator
        ] = None,
    ) -> None:
        window_list = [int(w) for w in windows]
        if not window_list:
            raise ParameterError("windows must be non-empty")
        if any(w < 1 for w in window_list):
            raise ParameterError(f"all windows must be >= 1, got {window_list!r}")
        self.params = params
        self.mode = mode
        self.times: SlotTimes = slot_times(params, mode)
        self.rng = np.random.default_rng(seed)
        self.nodes = [
            BackoffNode(w, params.max_backoff_stage, self.rng)
            for w in window_list
        ]

    @property
    def n_nodes(self) -> int:
        """Number of stations being simulated."""
        return len(self.nodes)

    def set_windows(self, windows: Sequence[int]) -> None:
        """Reconfigure every node's window (a new stage of the game)."""
        window_list = [int(w) for w in windows]
        if len(window_list) != self.n_nodes:
            raise ParameterError(
                f"need {self.n_nodes} windows, got {len(window_list)}"
            )
        for node, window in zip(self.nodes, window_list):
            node.set_window(window)

    # ------------------------------------------------------------------
    def run(
        self, n_slots: int, *, observer: Optional[SlotObserver] = None
    ) -> SimulationResult:
        """Simulate ``n_slots`` virtual slots and return the estimates.

        Parameters
        ----------
        n_slots:
            Number of virtual slots (channel events) to simulate.  The
            run may end a few slots past the target when the final idle
            jump overshoots; counters reflect the slots actually
            simulated.
        observer:
            Optional promiscuous observer (duck-typed to
            :class:`repro.detect.estimator.WindowObserver`): it receives
            ``record_idle(slots)`` for idle stretches and
            ``record_transmission(transmitters, success)`` per busy
            slot, exactly what a monitoring station overhears.
        """
        if n_slots < 1:
            raise ParameterError(f"n_slots must be >= 1, got {n_slots!r}")
        if not _obs_enabled():
            return self._run(n_slots, observer)
        with _obs_span(
            "sim.run",
            engine="reference",
            n_nodes=self.n_nodes,
            n_slots=n_slots,
        ):
            with _obs_rate_gauge(
                "sim.slots_per_sec", engine="reference"
            ) as probe:
                result = self._run(n_slots, observer)
                counters = result.counters
                probe.count = (
                    counters.idle_slots
                    + counters.success_slots
                    + counters.collision_slots
                )
            _obs_inc("sim.runs", 1, engine="reference")
            _obs_inc(
                "sim.slots", counters.idle_slots,
                engine="reference", kind="idle",
            )
            _obs_inc(
                "sim.slots", counters.success_slots,
                engine="reference", kind="success",
            )
            _obs_inc(
                "sim.slots", counters.collision_slots,
                engine="reference", kind="collision",
            )
        return result

    def _run(
        self, n_slots: int, observer: Optional[SlotObserver]
    ) -> SimulationResult:
        counters = ChannelCounters(
            per_node=[NodeCounters() for _ in range(self.n_nodes)]
        )
        times = self.times
        nodes = self.nodes

        slots_done = 0
        while slots_done < n_slots:
            jump = min(node.counter for node in nodes)
            if jump > 0:
                # Idle stretch: every counter survives the jump.
                idle = min(jump, n_slots - slots_done)
                for node in nodes:
                    node.tick(idle)
                counters.idle_slots += idle
                counters.elapsed_us += idle * times.idle_us
                slots_done += idle
                if observer is not None:
                    observer.record_idle(idle)
                if idle < jump:
                    break
                continue

            transmitters = [
                index for index, node in enumerate(nodes) if node.ready
            ]
            success = len(transmitters) == 1
            if observer is not None:
                observer.record_transmission(transmitters, success)
            transmitter_set = frozenset(transmitters)
            for index, node in enumerate(nodes):
                if index in transmitter_set:
                    counters.per_node[index].attempts += 1
                    if success:
                        counters.per_node[index].successes += 1
                        node.on_success()
                    else:
                        counters.per_node[index].collisions += 1
                        node.on_collision()
                else:
                    node.tick(1)
            if success:
                counters.success_slots += 1
                counters.elapsed_us += times.success_us
            else:
                counters.collision_slots += 1
                counters.elapsed_us += times.collision_us
            slots_done += 1

        counters.check()
        return self._result(counters)

    def _result(self, counters: ChannelCounters) -> SimulationResult:
        return SimulationResult(
            counters=counters,
            windows=np.array([node.window for node in self.nodes], dtype=float),
            tau=counters.tau_estimates(),
            collision=counters.collision_estimates(),
            payoff_rates=counters.payoff_rates(
                self.params.gain, self.params.cost
            ),
            throughput=counters.throughput(self.params.payload_time_us),
        )
