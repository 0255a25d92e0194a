"""Batched slot kernel vs scalar reference mode.

``SimulationEngine(batched=False)`` differs from the default in exactly
one step: relay choice runs as a per-sender ``choose_relay`` loop
instead of one ``choose_relays`` call.  Everything else — energy
batches, channel draws, queue operations, estimator updates — is
shared code, so the two modes must produce *bit-identical* traces for
every protocol.  That identity is what makes the scalar mode a valid
baseline for the slot-kernel benchmark.
"""

import numpy as np
import pytest

from repro.analysis import PROTOCOLS
from repro.config import paper_config
from repro.core import QLECProtocol, routing
from repro.network.mobility import MobilityConfig
from repro.simulation.engine import SimulationEngine
from tests.conftest import make_config


def fingerprint(result):
    return [rs.row() for rs in result.per_round]


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_engine_modes_bit_identical(name):
    cfg = paper_config(seed=3, rounds=4)
    batched = SimulationEngine(cfg, PROTOCOLS[name](), batched=True).run()
    scalar = SimulationEngine(cfg, PROTOCOLS[name](), batched=False).run()
    assert fingerprint(batched) == fingerprint(scalar)
    assert batched.packets.latencies == scalar.packets.latencies
    assert batched.total_energy == scalar.total_energy


def _relay_choices(name: str, batched: bool) -> np.ndarray:
    """Drive a fresh engine two rounds, then ask the protocol for one
    slot's relay choices in the requested mode.

    Both calls see identical protocol/network state (the two modes are
    bit-identical through the warm-up, per the test above), so any
    difference isolates ``choose_relays`` vs the scalar loop.
    """
    cfg = paper_config(seed=5, rounds=4)
    engine = SimulationEngine(cfg, PROTOCOLS[name](), batched=batched)
    for _ in range(2):
        engine.run_round()
    st = engine.state
    proto = engine.protocol
    heads = proto.validate_heads(st, proto.select_cluster_heads(st))
    alive = np.flatnonzero(st.ledger.alive)
    senders = alive[~np.isin(alive, heads)]
    qlens = np.zeros(heads.size, dtype=np.int64)
    if batched:
        return np.asarray(proto.choose_relays(st, senders, heads, qlens))
    return np.array(
        [proto.choose_relay(st, int(s), heads, qlens) for s in senders],
        dtype=np.intp,
    )


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_choose_relays_matches_scalar_loop(name):
    batched = _relay_choices(name, batched=True)
    scalar = _relay_choices(name, batched=False)
    assert batched.tolist() == scalar.tolist()


# Above the pruning crossover (PRUNE_MIN_ACTIONS actions) batched QLEC
# relay choice scores only the heads its reward bound cannot rule out;
# the scalar loop, ``choose``, always scores every action.
PRUNED_K = 64


def pruned_config(mobility=None):
    return make_config(
        n_nodes=900, side=100.0, n_clusters=PRUNED_K, rounds=5,
        mean_interarrival=16.0, seed=4, initial_energy=2.0,
        mobility=mobility,
    )


def engine_state(engine):
    st = engine.state
    return (
        engine.protocol.router.v.values.tobytes(),
        st.ledger.residual.tobytes(),
        st.nodes.positions.tobytes(),
        st.protocol_rng.bit_generator.state,
    )


@pytest.mark.parametrize(
    "mobility", [None, MobilityConfig(speed=6.0)], ids=["static", "mobile"]
)
def test_pruned_relay_choice_matches_scalar(mobility, monkeypatch):
    """With mobility the heads move between rounds, so a stale head
    index would show."""
    assert PRUNED_K + 1 >= routing.PRUNE_MIN_ACTIONS
    pruned = []
    choose_pruned = routing.QRouter._choose_pruned

    def spy(self, *args):
        out = choose_pruned(self, *args)
        pruned.append(out is not None)
        return out

    monkeypatch.setattr(routing.QRouter, "_choose_pruned", spy)
    cfg = pruned_config(mobility)
    batched = SimulationEngine(cfg, QLECProtocol(), batched=True)
    rb = batched.run()
    assert pruned and all(pruned)  # every slot took the pruned path
    calls = len(pruned)
    scalar = SimulationEngine(cfg, QLECProtocol(), batched=False)
    rs = scalar.run()
    assert len(pruned) == calls  # the scalar loop never prunes
    assert fingerprint(rb) == fingerprint(rs)
    assert rb.packets.latencies == rs.packets.latencies
    assert rb.total_energy == rs.total_energy
    assert engine_state(batched) == engine_state(scalar)
