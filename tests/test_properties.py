"""Cross-module property-based invariants (hypothesis).

Each property here spans more than one subsystem — the single-module
properties live next to their modules.  Kept on modest example counts:
every example is a real (small) simulation or a full selection round.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QLECProtocol
from repro.core.selection import ImprovedDEECSelector
from repro.core.theory import cluster_radius
from repro.simulation import run_simulation
from repro.simulation.state import NetworkState
from tests.conftest import make_config


class TestSelectionProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=8),
        r=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=25, deadline=None)
    def test_selection_always_valid(self, seed, k, r):
        """For any round and k: heads are alive, unique, d_c-spaced,
        and exactly min(k, feasible) many under promotion."""
        state = NetworkState(make_config(n_nodes=30, seed=seed, n_clusters=k))
        state.round_index = r
        selector = ImprovedDEECSelector(k)
        result = selector.select(state)
        heads = result.heads
        assert len(np.unique(heads)) == heads.size
        assert state.ledger.alive[heads].all()
        assert heads.size <= 30
        d_c = cluster_radius(k, state.config.deployment.side)
        pos = state.nodes.positions[heads]
        for i in range(heads.size):
            for j in range(i + 1, heads.size):
                assert np.linalg.norm(pos[i] - pos[j]) > d_c

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_selection_deterministic_given_state(self, seed):
        """Identical states and streams produce identical heads."""
        a = NetworkState(make_config(seed=seed))
        b = NetworkState(make_config(seed=seed))
        ha = ImprovedDEECSelector(3).select(a).heads
        hb = ImprovedDEECSelector(3).select(b).heads
        np.testing.assert_array_equal(ha, hb)


class TestSimulationProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        lam=st.floats(min_value=1.0, max_value=32.0),
        energy=st.floats(min_value=0.005, max_value=1.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_full_run_invariants(self, seed, lam, energy):
        """Any scenario: accounting closes, bounds hold, nothing NaN."""
        config = make_config(
            n_nodes=12, rounds=3, seed=seed,
            mean_interarrival=lam, initial_energy=energy,
        )
        result = run_simulation(config, QLECProtocol())
        result.validate()
        p = result.packets
        assert p.generated == p.delivered + p.dropped
        assert 0.0 <= result.delivery_rate <= 1.0
        assert np.isfinite(result.total_energy)
        assert result.total_energy <= 12 * energy + 1e-9  # can't spend more than carried

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_energy_monotone_in_traffic(self, seed):
        """More offered load never costs less energy (same seed)."""
        lo = run_simulation(
            make_config(n_nodes=15, rounds=3, seed=seed, mean_interarrival=16.0),
            QLECProtocol(),
        )
        hi = run_simulation(
            make_config(n_nodes=15, rounds=3, seed=seed, mean_interarrival=2.0),
            QLECProtocol(),
        )
        assert hi.packets.generated >= lo.packets.generated
        if hi.packets.generated > lo.packets.generated:
            assert hi.total_energy >= lo.total_energy

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        retries=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=8, deadline=None)
    def test_latency_at_least_one_slot(self, seed, retries):
        config = make_config(n_nodes=12, rounds=3, seed=seed).replace(
            max_retries=retries
        )
        result = run_simulation(config, QLECProtocol())
        assert all(lat >= 1 for lat in result.packets.latencies)


class TestProtocolFairnessProperty:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=6, deadline=None)
    def test_same_deployment_across_protocols(self, seed):
        """Protocol choice never perturbs the deployment or traffic
        streams — the foundation of every paired comparison."""
        from repro.baselines import KMeansProtocol

        from repro.simulation.engine import SimulationEngine

        a = SimulationEngine(make_config(seed=seed), QLECProtocol())
        b = SimulationEngine(make_config(seed=seed), KMeansProtocol())
        np.testing.assert_array_equal(
            a.state.nodes.positions, b.state.nodes.positions
        )
        active = np.ones(a.state.n, dtype=bool)
        for x, y in zip(a.traffic.arrivals(active), b.traffic.arrivals(active)):
            np.testing.assert_array_equal(x, y)
