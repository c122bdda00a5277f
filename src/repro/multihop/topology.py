"""Geometric topologies for multi-hop networks (Section VI/VII.B).

A topology is a set of node positions in a rectangular area plus a common
transmission range; two nodes are neighbours when within range.  The
paper's scenario is 100 nodes in a 1000 m x 1000 m area with a 250 m
range.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List

import numpy as np

from repro.errors import TopologyError
from repro.rng import RngLike, resolve_rng

__all__ = ["GeometricTopology", "random_topology"]

#: Fixed fallback seed for :func:`random_topology` when no generator is
#: supplied (determinism guarantee; see docs/static_analysis.md).
DEFAULT_TOPOLOGY_SEED = 20070601


@dataclass(frozen=True)
class GeometricTopology:
    """An immutable geometric snapshot of a multi-hop network.

    Attributes
    ----------
    positions:
        Node coordinates, shape ``(n, 2)`` in metres.
    tx_range:
        Transmission/sensing range in metres.
    width, height:
        Dimensions of the deployment area (used for validation and
        mobility bounds).
    """

    positions: np.ndarray
    tx_range: float
    width: float
    height: float

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 2:
            raise TopologyError(
                f"positions must have shape (n >= 2, 2), got {pos.shape!r}"
            )
        if self.tx_range <= 0:
            raise TopologyError(
                f"tx_range must be positive, got {self.tx_range!r}"
            )
        if self.width <= 0 or self.height <= 0:
            raise TopologyError("area dimensions must be positive")
        if np.any(pos < -1e-9) or np.any(
            pos > np.array([self.width, self.height]) + 1e-9
        ):
            raise TopologyError("some positions fall outside the area")
        object.__setattr__(self, "positions", pos)

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return int(self.positions.shape[0])

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Boolean adjacency matrix (no self-loops)."""
        diff = self.positions[:, None, :] - self.positions[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        return (dist <= self.tx_range) & ~np.eye(self.n_nodes, dtype=bool)

    def neighbors(self, node: int) -> np.ndarray:
        """Indices of the neighbours of ``node``."""
        self._check_node(node)
        return np.flatnonzero(self.adjacency[node])

    def degree(self, node: int) -> int:
        """Number of neighbours of ``node``."""
        return int(self.adjacency[node].sum())

    def degrees(self) -> np.ndarray:
        """Neighbour count of every node."""
        return self.adjacency.sum(axis=1)

    def local_size(self, node: int) -> int:
        """Size of the local contention domain, ``deg(node) + 1``.

        This is the ``n`` of the node's local single-hop game (the node
        plus its neighbours, equation (4) of the paper).
        """
        return self.degree(node) + 1

    def _reach(self, source: int) -> np.ndarray:
        """Boolean mask of the nodes reachable from ``source``.

        Breadth-first search over :attr:`adjacency`, one frontier per hop.
        """
        reached = np.zeros(self.n_nodes, dtype=bool)
        reached[source] = True
        frontier = reached.copy()
        while frontier.any():
            frontier = self.adjacency[frontier].any(axis=0) & ~reached
            reached |= frontier
        return reached

    def is_connected(self) -> bool:
        """Whether the snapshot forms one connected component.

        Section VI assumes a connected network (otherwise TFT converges
        per component, not globally).
        """
        return bool(self._reach(0).all())

    def components(self) -> List[set]:
        """Connected components as sets of node indices.

        Ordered by their smallest node.
        """
        found: List[set] = []
        unseen = np.ones(self.n_nodes, dtype=bool)
        for node in range(self.n_nodes):
            if unseen[node]:
                reached = self._reach(node)
                unseen &= ~reached
                found.append(set(np.flatnonzero(reached).tolist()))
        return found

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise TopologyError(
                f"node {node!r} out of range [0, {self.n_nodes})"
            )


def random_topology(
    n_nodes: int = 100,
    *,
    width: float = 1000.0,
    height: float = 1000.0,
    tx_range: float = 250.0,
    rng: RngLike = None,
    require_connected: bool = False,
    max_retries: int = 100,
) -> GeometricTopology:
    """Sample a uniform random topology (the paper's VII.B scenario).

    Parameters
    ----------
    n_nodes, width, height, tx_range:
        Scenario constants; defaults match the paper (100 nodes,
        1000 m x 1000 m, 250 m range).
    rng:
        Random generator, seed or ``SeedSequence``.  When omitted the
        sample is still deterministic: it derives from the module's
        fixed :data:`DEFAULT_TOPOLOGY_SEED`.
    require_connected:
        Resample until the snapshot is connected (the paper assumes a
        connected network).
    max_retries:
        Resampling budget when ``require_connected`` is set.

    Returns
    -------
    GeometricTopology
    """
    if n_nodes < 2:
        raise TopologyError(f"n_nodes must be >= 2, got {n_nodes!r}")
    generator = resolve_rng(rng, default_seed=DEFAULT_TOPOLOGY_SEED)
    for _ in range(max_retries):
        positions = generator.uniform(
            low=[0.0, 0.0], high=[width, height], size=(n_nodes, 2)
        )
        topology = GeometricTopology(
            positions=positions, tx_range=tx_range, width=width, height=height
        )
        if not require_connected or topology.is_connected():
            return topology
    raise TopologyError(
        f"could not sample a connected topology in {max_retries} tries; "
        "increase tx_range or the retry budget"
    )
