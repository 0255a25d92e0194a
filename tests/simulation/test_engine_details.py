"""Deeper engine-semantics tests: uplink paths, relay budgets, BS
budget reset, hop-by-hop forwarding internals, uplink aggregation
modes."""

import numpy as np
import pytest

from repro.baselines import FCMProtocol, QELARProtocol, TLLEACHProtocol
from repro.baselines.base import ClusteringProtocol
from repro.config import QueueConfig
from repro.core import QLECProtocol
from repro.network.packet import PacketArena
from repro.simulation.engine import SimulationEngine, run_simulation
from tests.conftest import make_config


class _PinnedPathProtocol(ClusteringProtocol):
    """Test double: fixed heads, fixed membership, fixed uplink chain."""

    name = "pinned"

    def __init__(self, heads, path_map=None):
        self._heads = np.asarray(heads, dtype=np.intp)
        self._path_map = path_map or {}

    def select_cluster_heads(self, state):
        return self._heads

    def choose_relay(self, state, node, heads, queue_lengths):
        d = state.distances_from(node, heads)
        return int(heads[d.argmin()])

    def uplink_path(self, state, head, heads):
        return self._path_map.get(int(head), [])


class TestUplinkPaths:
    def test_multi_hop_uplink_charges_intermediate(self):
        config = make_config(seed=1, rounds=1, mean_interarrival=2.0)
        proto = _PinnedPathProtocol(heads=[0, 1], path_map={0: [1]})
        engine = SimulationEngine(config, proto)
        engine.run_round()
        led = engine.state.ledger
        # Head 1 relayed head 0's aggregate: it must have paid rx for
        # transit frames on top of its own cluster traffic.
        assert led.spent_rx > 0.0

    def test_cycle_free_even_with_bad_path_map(self):
        """A path that names the origin again must not loop forever
        (visited-set semantics live in the protocols; the engine just
        walks the chain once)."""
        config = make_config(seed=2, rounds=1)
        proto = _PinnedPathProtocol(heads=[0, 1], path_map={0: [1], 1: [0]})
        result = SimulationEngine(config, proto).run()
        result.validate()

    def test_fcm_transit_consumes_relay_budget(self):
        """Saturate the network: FCM's level-0 heads must reject some
        transit frames (dropped_queue from the uplink stage)."""
        config = make_config(
            seed=3, n_nodes=60, rounds=3, mean_interarrival=1.0
        ).replace(queue=QueueConfig(capacity=16, service_rate=2))
        result = run_simulation(config, FCMProtocol())
        result.validate()
        assert result.packets.dropped_queue > 0


class TestBSBudget:
    def test_budget_resets_each_slot(self):
        """With budget B and S slots, up to B*S direct packets per
        round can land — more than B total proves the per-slot reset."""
        config = make_config(
            seed=4, n_nodes=30, rounds=1, mean_interarrival=1.0
        ).replace(queue=QueueConfig(bs_capacity_per_slot=2))
        from repro.baselines import DirectProtocol

        result = run_simulation(config, DirectProtocol())
        slots = config.traffic.slots_per_round
        assert 2 < result.packets.delivered <= 2 * slots

    def test_budget_is_per_slot_cap(self):
        config = make_config(
            seed=5, n_nodes=30, rounds=2, mean_interarrival=1.0
        ).replace(queue=QueueConfig(bs_capacity_per_slot=1))
        from repro.baselines import DirectProtocol

        result = run_simulation(config, DirectProtocol())
        max_possible = 2 * config.traffic.slots_per_round  # rounds * slots
        assert result.packets.delivered <= max_possible


class TestHopByHop:
    def test_relayed_packets_expire_at_ttl(self):
        config = make_config(n_nodes=50, side=400.0, seed=6).replace(max_hops=2)
        result = run_simulation(config, QELARProtocol())
        result.validate()
        # With TTL 2 on a 400 m network some packets must expire in
        # flight or be forced into long direct shots.
        assert result.packets.expired + result.packets.dropped_queue > 0

    def test_relay_pays_rx_energy(self):
        config = make_config(n_nodes=50, side=400.0, seed=7,
                             mean_interarrival=8.0)
        engine = SimulationEngine(config, QELARProtocol())
        engine.run()
        assert engine.state.ledger.spent_rx > 0.0

    def test_non_hop_protocols_never_store_and_forward(self):
        """Cluster protocols only ever target heads or the BS, so no
        packet should sit in another member's buffer at round end."""
        config = make_config(seed=8, rounds=1)
        engine = SimulationEngine(config, QLECProtocol())
        engine.run_round()
        # Buffers may hold each node's OWN unsent packets only.
        for node in range(engine.state.n):
            for row in engine.buffers.indices(node):
                assert engine.arena.source[row] == node


class TestExpiryAccounting:
    def test_unserviced_queue_expires_with_round(self):
        config = make_config(
            seed=9, rounds=1, mean_interarrival=1.0
        ).replace(queue=QueueConfig(capacity=200, service_rate=1))
        result = run_simulation(config, QLECProtocol())
        assert result.packets.expired > 0
        result.validate()

    def test_expired_status_set(self):
        config = make_config(seed=10, rounds=1, mean_interarrival=1.0).replace(
            queue=QueueConfig(capacity=200, service_rate=1)
        )
        engine = SimulationEngine(config, QLECProtocol())
        engine.run()
        # Nothing remains in CH queues after the run (drained + expired).
        assert engine.buffers.total == 0


def _congested(seed=9):
    """One round whose heads leave backlog behind, so the engine drops
    rows through ``_drop`` at round end."""
    return make_config(seed=seed, rounds=2, mean_interarrival=1.0).replace(
        queue=QueueConfig(capacity=200, service_rate=1)
    )


class TestConservation:
    """The engine checks at every round end that each generated packet
    is delivered, dropped, or waiting in a source buffer."""

    def test_holds_on_a_clean_run(self):
        engine = SimulationEngine(_congested(), QLECProtocol())
        engine.run_round()
        totals = engine._totals
        assert engine.arena.n_live == engine.buffers.total > 0
        assert totals.generated == (
            totals.delivered + totals.dropped + engine.arena.n_live
        )
        result = engine.run()
        assert engine.arena.n_live == 0
        assert result.packets.generated == (
            result.packets.delivered + result.packets.dropped
        )

    def test_a_row_freed_but_not_counted_raises(self, monkeypatch):
        drop = SimulationEngine._drop

        def uncounted(self, lost, stats):
            drop(self, lost, stats)
            fate = lost[0][1]
            setattr(stats, fate, getattr(stats, fate) - 1)

        monkeypatch.setattr(SimulationEngine, "_drop", uncounted)
        engine = SimulationEngine(_congested(), QLECProtocol())
        with pytest.raises(AssertionError, match="generated"):
            engine.run_round()

    def test_a_row_counted_twice_raises(self, monkeypatch):
        drop = SimulationEngine._drop

        def twice(self, lost, stats):
            drop(self, lost, stats)
            fate = lost[0][1]
            setattr(stats, fate, getattr(stats, fate) + 1)

        monkeypatch.setattr(SimulationEngine, "_drop", twice)
        engine = SimulationEngine(_congested(), QLECProtocol())
        with pytest.raises(AssertionError, match="generated"):
            engine.run_round()

    def test_a_row_never_freed_raises(self, monkeypatch):
        free = PacketArena.free
        leaked = []

        def leaky(self, idx):
            idx = np.asarray(idx, dtype=np.int64)
            if not leaked and idx.size:
                leaked.append(int(idx[-1]))
                idx = idx[:-1]
            free(self, idx)

        monkeypatch.setattr(PacketArena, "free", leaky)
        engine = SimulationEngine(_congested(), QLECProtocol())
        with pytest.raises(AssertionError, match="arena holds"):
            engine.run_round()
        assert leaked


class TestTLLEACHUplinkEnergy:
    def test_secondary_chain_costs_more_than_direct(self):
        """Same scenario: two-level relaying burns more uplink energy
        than QLEC's direct head->BS (transit rx + extra tx)."""
        config = make_config(seed=11, n_nodes=60, n_clusters=8,
                             mean_interarrival=4.0)
        tl = run_simulation(config, TLLEACHProtocol())
        flat = run_simulation(config, QLECProtocol())
        assert tl.packets.mean_hops >= flat.packets.mean_hops - 0.2


class TestAggregationModes:
    def test_energy_ordering(self):
        """perfect fusion < ratio compression < no aggregation."""
        energies = {}
        for mode in ("perfect", "ratio", "none"):
            cfg = make_config(seed=5).replace(aggregation=mode)
            energies[mode] = run_simulation(cfg, QLECProtocol()).total_energy
        assert energies["perfect"] < energies["ratio"] < energies["none"]

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            make_config().replace(aggregation="quantum")

    def test_pdr_insensitive_to_fusion_model(self):
        """Fusion only changes uplink framing, not member delivery."""
        pdrs = []
        for mode in ("perfect", "ratio"):
            cfg = make_config(seed=6, mean_interarrival=16.0).replace(
                aggregation=mode
            )
            pdrs.append(run_simulation(cfg, QLECProtocol()).delivery_rate)
        assert abs(pdrs[0] - pdrs[1]) < 0.1
