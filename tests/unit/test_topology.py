"""Unit tests for geometric topologies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.multihop.topology import GeometricTopology, random_topology


def make(positions, tx_range=150.0, width=1000.0, height=1000.0):
    return GeometricTopology(
        positions=np.asarray(positions, dtype=float),
        tx_range=tx_range,
        width=width,
        height=height,
    )


class TestConstruction:
    def test_rejects_single_node(self):
        with pytest.raises(TopologyError):
            make([[0, 0]])

    def test_rejects_positions_outside_area(self):
        with pytest.raises(TopologyError):
            make([[0, 0], [1500, 0]])

    def test_rejects_bad_range(self):
        with pytest.raises(TopologyError):
            make([[0, 0], [1, 1]], tx_range=0.0)

    def test_rejects_bad_area(self):
        with pytest.raises(TopologyError):
            GeometricTopology(
                positions=np.zeros((2, 2)),
                tx_range=100.0,
                width=0.0,
                height=10.0,
            )


class TestAdjacency:
    def test_line_topology(self):
        topo = make([[0, 0], [100, 0], [200, 0]])
        assert topo.degree(0) == 1
        assert topo.degree(1) == 2
        assert topo.degree(2) == 1
        np.testing.assert_array_equal(topo.neighbors(1), [0, 2])

    def test_no_self_loops(self):
        topo = make([[0, 0], [10, 0]])
        assert not topo.adjacency[0, 0]
        assert not topo.adjacency[1, 1]

    def test_adjacency_symmetric(self):
        topo = random_topology(20, rng=np.random.default_rng(1))
        np.testing.assert_array_equal(topo.adjacency, topo.adjacency.T)

    def test_boundary_distance_included(self):
        topo = make([[0, 0], [150, 0]])
        assert topo.adjacency[0, 1]

    def test_local_size_is_degree_plus_one(self):
        topo = make([[0, 0], [100, 0], [200, 0]])
        assert topo.local_size(1) == 3
        assert topo.local_size(0) == 2

    def test_node_bounds_checked(self):
        topo = make([[0, 0], [100, 0]])
        with pytest.raises(TopologyError):
            topo.neighbors(5)


class TestGraphQueries:
    def test_connected_line(self):
        topo = make([[0, 0], [100, 0], [200, 0]])
        assert topo.is_connected()
        assert topo.components() == [{0, 1, 2}]

    def test_disconnected_pair(self):
        topo = make([[0, 0], [100, 0], [900, 900]])
        assert not topo.is_connected()
        assert len(topo.components()) == 2

    def test_components_ordered_by_smallest_node(self):
        topo = make([[900, 900], [0, 0], [500, 500], [100, 0], [800, 900]])
        assert not topo.is_connected()
        assert topo.components() == [{0, 4}, {1, 3}, {2}]

    @pytest.mark.parametrize("seed", range(12))
    def test_components_match_scipy(self, seed):
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        rng = np.random.default_rng(seed)
        # Ranges from mostly isolated nodes to one connected component.
        topo = random_topology(
            int(rng.integers(2, 60)),
            tx_range=float(rng.choice([40.0, 120.0, 250.0, 600.0])),
            rng=rng,
        )
        count, labels = csgraph.connected_components(
            topo.adjacency, directed=False
        )
        expected = [set(np.flatnonzero(labels == k).tolist()) for k in range(count)]
        assert topo.components() == expected
        assert topo.is_connected() == (count == 1)


class TestRandomTopology:
    def test_paper_defaults(self):
        topo = random_topology(rng=np.random.default_rng(0))
        assert topo.n_nodes == 100
        assert topo.tx_range == 250.0  # repro: noqa=REPRO003
        assert topo.width == topo.height == 1000.0  # repro: noqa=REPRO003

    def test_positions_inside_area(self):
        topo = random_topology(30, rng=np.random.default_rng(3))
        assert np.all(topo.positions >= 0)
        assert np.all(topo.positions <= 1000)

    def test_require_connected(self):
        topo = random_topology(
            50, rng=np.random.default_rng(4), require_connected=True
        )
        assert topo.is_connected()

    def test_connection_failure_raises(self):
        # Tiny range, huge area: cannot connect.
        with pytest.raises(TopologyError):
            random_topology(
                10,
                tx_range=1.0,
                rng=np.random.default_rng(5),
                require_connected=True,
                max_retries=3,
            )

    def test_rejects_single_node(self):
        with pytest.raises(TopologyError):
            random_topology(1)
