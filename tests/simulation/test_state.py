"""Tests for the shared NetworkState."""

import numpy as np
import pytest

from repro.network.deployment import uniform_cube
from repro.simulation.state import NetworkState
from tests.conftest import make_config


class TestConstruction:
    def test_deploys_from_config(self):
        state = NetworkState(make_config(n_nodes=25))
        assert state.n == 25
        assert state.bs_index == 25

    def test_accepts_prebuilt_deployment(self):
        nodes, bs = uniform_cube(8, 60.0, 0.3, rng=0)
        state = NetworkState(make_config(), nodes=nodes, bs=bs)
        assert state.n == 8
        np.testing.assert_allclose(state.ledger.initial, 0.3)

    def test_initial_energy_override(self):
        nodes, bs = uniform_cube(4, 60.0, 1.0, rng=0)
        energies = np.array([0.1, 0.2, 0.3, 0.4])
        state = NetworkState(
            make_config(), nodes=nodes, bs=bs, initial_energy=energies
        )
        np.testing.assert_allclose(state.ledger.initial, energies)

    def test_same_seed_same_deployment(self):
        a = NetworkState(make_config(seed=9))
        b = NetworkState(make_config(seed=9))
        np.testing.assert_array_equal(a.nodes.positions, b.nodes.positions)

    def test_rng_streams_are_independent(self):
        state = NetworkState(make_config(seed=1))
        t = state.traffic_rng.random(5)
        p = state.protocol_rng.random(5)
        assert not np.allclose(t, p)

    def test_estimator_config_applied(self):
        cfg = make_config().replace(estimator_alpha=0.4, estimator_shared=False)
        state = NetworkState(cfg)
        assert state.link_estimator.alpha == 0.4
        assert not state.link_estimator.shared


class TestGeometry:
    def test_distance_to_bs_sentinel(self):
        state = NetworkState(make_config(seed=2))
        expected = float(state.topology.d_to_bs[3])
        assert state.distance(3, state.bs_index) == pytest.approx(expected)

    def test_distance_between_nodes(self):
        state = NetworkState(make_config(seed=2))
        p = state.nodes.positions
        assert state.distance(0, 1) == pytest.approx(
            float(np.linalg.norm(p[0] - p[1]))
        )

    def test_distances_from_mixed_targets(self):
        state = NetworkState(make_config(seed=2))
        targets = np.array([1, state.bs_index, 4])
        d = state.distances_from(0, targets)
        assert d[0] == pytest.approx(state.distance(0, 1))
        assert d[1] == pytest.approx(state.distance(0, state.bs_index))
        assert d[2] == pytest.approx(state.distance(0, 4))


class TestBookkeeping:
    def test_average_energy_estimate_eq2(self):
        state = NetworkState(make_config(n_nodes=10, initial_energy=0.2, rounds=10))
        state.round_index = 5
        # Eq. (2): (E_total / N) * (1 - r/R) = 0.2 * 0.5
        assert state.average_energy_estimate() == pytest.approx(0.1)

    def test_mark_cluster_heads(self):
        state = NetworkState(make_config())
        state.round_index = 3
        state.mark_cluster_heads(np.array([1, 2]))
        assert state.last_ch_round[1] == 3
        assert state.last_ch_round[0] == -np.inf

    def test_alive_indices_shrink(self):
        state = NetworkState(make_config())
        state.ledger.discharge(0, 10.0, "tx")
        assert 0 not in state.alive_indices()


class TestMemoryReport:
    def test_report_shape_and_budget(self):
        state = NetworkState(make_config(n_nodes=50, max_block_mb=2.0))
        report = state.memory_report()
        assert set(report) == {"arrays", "resident_mb", "transient_block_mb"}
        assert report["transient_block_mb"] == 2.0
        assert report["resident_mb"] == pytest.approx(
            sum(a["mbytes"] for a in report["arrays"].values())
        )
        positions = report["arrays"]["positions"]
        assert positions["dtype"] == "float64"
        assert positions["shape"] == (50, 3)

    def test_unbudgeted_transient_is_the_full_block(self):
        state = NetworkState(make_config(n_nodes=50, n_clusters=4))
        report = state.memory_report()
        expected = 8 * 50 * 4 * 4 / 2**20  # n x k float64 diff + out
        assert report["transient_block_mb"] == pytest.approx(expected)
