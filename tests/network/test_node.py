"""Tests for NodeArray / Node / BaseStation."""

import numpy as np
import pytest

from repro.network.node import BaseStation, NodeArray


def grid_nodes(n=4):
    pos = np.column_stack([np.arange(n), np.zeros(n), np.zeros(n)]).astype(float)
    return NodeArray(pos, 1.0)


class TestNodeArray:
    def test_scalar_energy_broadcasts(self):
        nodes = grid_nodes(3)
        np.testing.assert_allclose(nodes.initial_energy, [1.0, 1.0, 1.0])

    def test_heterogeneous_energy(self):
        nodes = NodeArray(np.zeros((2, 3)), [0.5, 2.0])
        np.testing.assert_allclose(nodes.initial_energy, [0.5, 2.0])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            NodeArray(np.zeros((3, 2)), 1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            NodeArray(np.zeros((0, 3)), 1.0)

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError):
            NodeArray(np.zeros((2, 3)), [1.0, 0.0])

    def test_positions_immutable(self):
        nodes = grid_nodes()
        with pytest.raises(ValueError):
            nodes.positions[0, 0] = 9.0

    def test_len_and_getitem(self):
        nodes = grid_nodes(4)
        assert len(nodes) == 4
        node = nodes[2]
        assert node.node_id == 2
        assert node.position == (2.0, 0.0, 0.0)
        assert node.initial_energy == 1.0

    def test_negative_index_wraps(self):
        nodes = grid_nodes(4)
        assert nodes[-1].node_id == 3

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError):
            grid_nodes(4)[4]

    def test_iter_yields_all(self):
        ids = [n.node_id for n in grid_nodes(5)]
        assert ids == list(range(5))

    def test_source_array_mutation_does_not_leak(self):
        pos = np.zeros((2, 3))
        nodes = NodeArray(pos, 1.0)
        pos[0, 0] = 99.0
        assert nodes.positions[0, 0] == 0.0


class TestBaseStation:
    def test_xyz(self):
        bs = BaseStation((1.0, 2.0, 3.0))
        np.testing.assert_allclose(bs.xyz, [1.0, 2.0, 3.0])

    def test_node_xyz(self):
        node = grid_nodes()[1]
        np.testing.assert_allclose(node.xyz, [1.0, 0.0, 0.0])
