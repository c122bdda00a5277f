"""Multi-hop TFT under mobility (the *mobile* in "mobile ad hoc").

Section VI's network is mobile, but the paper analyses convergence on a
connected snapshot.  This module plays the game *across* snapshots and
exposes a real property of the paper's TFT worth knowing:

* **Sticky TFT (the paper's literal rule).**  ``W_i^k = min_j W_j^{k-1}``
  never raises a window, so the network-wide minimum is absorbing over
  time: once a low-window node has passed through a neighbourhood, its
  window stays behind even after the node moves away, and over many
  epochs the whole network ratchets down to the *historical* minimum.
* **Re-opening TFT.**  If nodes re-open each epoch at the efficient
  window of their *current* local game (a stage re-initialisation in the
  spirit of the paper's "initial value" rule, or of GTFT forgiveness),
  every epoch converges to its own snapshot minimum and the network
  tracks the topology instead of its history.

The contrast quantifies why a deployed protocol needs a forgiveness /
re-initialisation mechanism on top of the bare TFT rule the analysis
uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import ParameterError
from repro.multihop.game import MultihopGame
from repro.multihop.mobility import RandomWaypointModel
from repro.phy.parameters import AccessMode, PhyParameters
from repro.rng import RngLike, resolve_rng

__all__ = ["EpochRecord", "MobilityDynamics", "MobilityTrace"]

#: Fixed fallback seed when no generator is supplied (determinism
#: guarantee; see docs/static_analysis.md).
DEFAULT_DYNAMICS_SEED = 20070603


@dataclass(frozen=True)
class EpochRecord:
    """One mobility epoch of the dynamics.

    Attributes
    ----------
    epoch:
        Epoch index.
    snapshot_minimum:
        ``min_i W_i`` of the *current* snapshot's local games - what the
        epoch would converge to in isolation.
    sticky_window:
        Converged common window under sticky TFT (carries history).
    reopening_window:
        Converged common window when nodes re-open at their current
        local optima each epoch.
    mean_degree:
        Mean neighbour count of the snapshot.
    """

    epoch: int
    snapshot_minimum: int
    sticky_window: int
    reopening_window: int
    mean_degree: float


@dataclass
class MobilityTrace:
    """All epochs of one dynamics run."""

    records: List[EpochRecord]

    def sticky_windows(self) -> List[int]:
        """Converged sticky-TFT window per epoch."""
        return [record.sticky_window for record in self.records]

    def reopening_windows(self) -> List[int]:
        """Converged re-opening-TFT window per epoch."""
        return [record.reopening_window for record in self.records]

    def snapshot_minima(self) -> List[int]:
        """Each snapshot's own local-game minimum."""
        return [record.snapshot_minimum for record in self.records]


class MobilityDynamics:
    """Play multi-hop TFT across random-waypoint epochs.

    Parameters
    ----------
    params:
        PHY/MAC constants.
    n_nodes, width, height, tx_range, max_speed:
        The mobility scenario (paper defaults).
    mode:
        Access mode (Section VI uses RTS/CTS).
    rng:
        Random generator, seed or ``SeedSequence`` for the mobility
        model; omitted means a deterministic fallback seeded with
        :data:`DEFAULT_DYNAMICS_SEED`.
    """

    def __init__(
        self,
        params: PhyParameters,
        *,
        n_nodes: int = 100,
        width: float = 1000.0,
        height: float = 1000.0,
        tx_range: float = 250.0,
        max_speed: float = 5.0,
        mode: AccessMode = AccessMode.RTS_CTS,
        rng: RngLike = None,
    ) -> None:
        self.params = params
        self.tx_range = tx_range
        self.mode = mode
        self.model = RandomWaypointModel(
            n_nodes,
            width=width,
            height=height,
            max_speed=max_speed,
            rng=resolve_rng(rng, default_seed=DEFAULT_DYNAMICS_SEED),
        )
        self._sticky: Optional[np.ndarray] = None

    def run(
        self, n_epochs: int, *, epoch_seconds: float = 100.0
    ) -> MobilityTrace:
        """Advance mobility and converge TFT per epoch.

        Parameters
        ----------
        n_epochs:
            Number of mobility epochs to play.
        epoch_seconds:
            Mobility time between snapshots.

        Returns
        -------
        MobilityTrace
        """
        if n_epochs < 1:
            raise ParameterError(f"n_epochs must be >= 1, got {n_epochs!r}")
        records: List[EpochRecord] = []
        for epoch, topology in enumerate(
            self.model.snapshots(
                self.tx_range, interval=epoch_seconds, count=n_epochs
            )
        ):
            game = MultihopGame(topology, self.params, self.mode)
            equilibrium = game.solve()
            local = equilibrium.local
            reopening = equilibrium.converged_window

            if self._sticky is None:
                self._sticky = local.windows.astype(int).copy()
            else:
                # Sticky TFT never raises: keep the historical windows
                # and let the new neighbourhood minima flood.
                self._sticky = np.minimum(
                    self._sticky, local.windows.astype(int)
                )
            sticky = self._flood(topology, self._sticky)
            self._sticky = sticky

            records.append(
                EpochRecord(
                    epoch=epoch,
                    snapshot_minimum=int(local.minimum),
                    sticky_window=int(
                        sticky[topology.degrees() > 0].min()
                        if (topology.degrees() > 0).any()
                        else sticky.min()
                    ),
                    reopening_window=reopening,
                    mean_degree=float(topology.degrees().mean()),
                )
            )
        return MobilityTrace(records=records)

    @staticmethod
    def _flood(topology, windows: np.ndarray) -> np.ndarray:
        """Run the TFT minimum flood to convergence on one snapshot."""
        adjacency = topology.adjacency
        current = windows.astype(int).copy()
        for _ in range(topology.n_nodes + 1):
            nxt = current.copy()
            for node in range(topology.n_nodes):
                neighborhood = np.flatnonzero(adjacency[node])
                if neighborhood.size:
                    nxt[node] = min(
                        int(current[node]), int(current[neighborhood].min())
                    )
            if np.array_equal(nxt, current):
                return current
            current = nxt
        return current
