"""The per-round link table (``repro.simulation.links``) against direct
pricing.

Each entry must be the bits the direct call gives on the same pair, and
a whole run with the table forced off (its byte budget patched to 0)
must equal one with it on: round rows, energy, the V table, link
estimates and the RNG streams.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.analysis import PROTOCOLS
from repro.config import paper_config
from repro.core import QLECProtocol
from repro.core.rewards import RewardModel
from repro.network.mobility import MobilityConfig
from repro.network.node import BaseStation, NodeArray
from repro.simulation import links as links_module
from repro.simulation.engine import SimulationEngine
from repro.simulation.links import RoundLinks
from repro.simulation.scenarios import build_scenario
from repro.simulation.state import NetworkState


def bits_of(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


# ----------------------------------------------------------------------
# Entries
# ----------------------------------------------------------------------


@pytest.fixture
def placed():
    """A paper-radio network with hand-placed links: a node on a head
    (d = 0), one exactly d0 from a head, one just beyond d0, and one
    midway between two heads (a nearest-head tie); the rest random."""
    cfg = paper_config(seed=0, rounds=2)
    d0 = cfg.radio.d0
    rng = np.random.default_rng(11)
    pos = rng.uniform(0.0, 200.0, size=(40, 3))
    pos[0] = (0.0, 0.0, 0.0)  # head
    pos[1] = (100.0, 0.0, 0.0)  # head
    pos[2] = (0.0, 0.0, 0.0)  # on head 0
    pos[3] = (d0, 0.0, 0.0)  # exactly d0 from head 0
    pos[4] = (0.0, np.nextafter(d0, np.inf), 0.0)  # just past d0
    pos[5] = (50.0, 0.0, 0.0)  # tie between heads 0 and 1
    pos[6] = (150.0, 150.0, 150.0)  # head
    nodes = NodeArray(pos, np.full(40, 0.5))
    state = NetworkState(
        cfg, nodes=nodes, bs=BaseStation((100.0, 100.0, 250.0))
    )
    heads = np.array([0, 1, 6], dtype=np.intp)
    return state, heads


def all_pairs(state, heads):
    targets = np.append(heads, state.bs_index)
    senders = np.repeat(np.arange(state.n), targets.size)
    return senders, np.tile(targets, state.n)


def test_entries_equal_direct_calls(placed):
    state, heads = placed
    links = RoundLinks(state, heads)
    assert links.on and links.serves(heads)
    senders, targets = all_pairs(state, heads)
    d = state.distances_many(senders, targets)
    assert bits_of(links.distances.ravel()) == bits_of(d)
    # The hand-placed links are there: d = 0, exactly d0, past d0.
    d0 = state.config.radio.d0
    assert links.distances[2, 0] == 0.0
    assert links.distances[3, 0] == d0
    assert links.distances[4, 0] > d0
    bits = state.config.traffic.packet_bits
    tx, curve = links.price(senders, targets)
    assert bits_of(tx) == bits_of(state.radio.tx(bits, d))
    assert bits_of(curve) == bits_of(state.channel.success_probability(d))
    rewards = RewardModel(state.config.qlearning, state.radio, bits)
    y = links.derived(rewards.y)
    assert bits_of(y.ravel()) == bits_of(rewards.y(d))
    assert links.derived(rewards.y) is y  # priced once


def test_bs_column_is_the_cached_bs_distance(placed):
    state, heads = placed
    links = RoundLinks(state, heads)
    assert bits_of(links.distances[:, -1]) == bits_of(state.topology.d_to_bs)


def test_nearest_head_matches_the_scalar_rule(placed):
    state, heads = placed
    links = RoundLinks(state, heads)
    senders = np.arange(state.n)
    got = links.nearest_heads(senders, heads)
    want = [heads[state.distances_from(int(s), heads).argmin()] for s in senders]
    assert got.tolist() == [int(h) for h in want]
    assert got[5] == 0  # the tie goes to the first head


def test_one_slot_of_links_gathers_the_same_bits(placed):
    state, heads = placed
    links = RoundLinks(state, heads)
    senders = np.array([2, 3, 4, 5, 9, 17, 30], dtype=np.int64)
    targets = np.array([0, 0, 0, 1, state.bs_index, 6, 1], dtype=np.int64)
    off = RoundLinks(state)
    for got, want in zip(links.price(senders, targets), off.price(senders, targets)):
        assert bits_of(got) == bits_of(want)


def test_when_the_table_computes(placed, monkeypatch):
    state, heads = placed
    assert not RoundLinks(state).on  # outside a round
    assert not RoundLinks(state, heads, hop_by_hop=True).on
    links = RoundLinks(state, heads)
    assert not links.serves(heads[:2])  # a masked head set
    # A target off the table (a relay through an ordinary node) is
    # priced directly, with the same bits.
    senders = np.array([3, 8], dtype=np.int64)
    targets = np.array([0, 9], dtype=np.int64)
    direct = RoundLinks(state).price(senders, targets)
    for got, want in zip(links.price(senders, targets), direct):
        assert bits_of(got) == bits_of(want)
    # Over the byte budget: 40 nodes x 4 actions x 8 bytes = 1280.
    monkeypatch.setattr(links_module, "TILE_BYTES", 1279)
    assert not RoundLinks(state, heads).on
    monkeypatch.setattr(links_module, "TILE_BYTES", 1280)
    assert RoundLinks(state, heads).on


def test_the_state_never_pickles_the_table(placed):
    state, heads = placed
    state.links = RoundLinks(state, heads)
    state.links.distances  # built
    restored = pickle.loads(pickle.dumps(state))
    assert "links" not in state.__getstate__()
    assert not restored.links.on


# ----------------------------------------------------------------------
# Whole runs: table on == table off
# ----------------------------------------------------------------------


def end_state(engine, result) -> dict:
    st = engine.state
    router = getattr(engine.protocol, "router", None)
    return {
        "rows": [rs.row() for rs in result.per_round],
        "latencies": list(result.packets.latencies),
        "residual": bits_of(st.ledger.residual),
        "alive": st.ledger.alive.tobytes(),
        "spent": st.ledger.category_breakdown(),
        "v": None if router is None else bits_of(router.v.values),
        "estimates": bits_of(st.link_estimator.estimates),
        "channel_rng": st.channel.rng.bit_generator.state,
        "protocol_rng": st.protocol_rng.bit_generator.state,
        "faults": result.faults,
    }


def run_pair(build, monkeypatch) -> tuple[dict, dict, list]:
    """Run ``build()``'s engine with the table on, then off; return
    both end states and what the on run asked its tables: one
    ``("price", on)`` per slot and one ``("serves", on, served)`` per
    relay-choice lookup."""
    price, serves = RoundLinks.price, RoundLinks.serves
    seen = []

    def price_spy(self, senders, targets):
        seen.append(("price", self.on))
        return price(self, senders, targets)

    def serves_spy(self, heads):
        out = serves(self, heads)
        seen.append(("serves", self.on, out))
        return out

    with monkeypatch.context() as m:
        m.setattr(RoundLinks, "price", price_spy)
        m.setattr(RoundLinks, "serves", serves_spy)
        engine = build()
        on = end_state(engine, engine.run())
    with monkeypatch.context() as m:
        m.setattr(links_module, "TILE_BYTES", 0)
        engine = build()
        off = end_state(engine, engine.run())
    return on, off, seen


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_run_with_the_table_equals_run_without(name, monkeypatch):
    cfg = paper_config(seed=2, rounds=6)
    on, off, seen = run_pair(
        lambda: SimulationEngine(cfg, PROTOCOLS[name]()), monkeypatch
    )
    assert on == off
    # Hop-by-hop QELAR builds no table; every other protocol's slots
    # gather from one.
    assert ("price", name != "qelar") in seen
    assert ("price", name == "qelar") not in seen


def test_chaos_run_with_masked_heads(monkeypatch):
    """``chaos-underwater-deep`` kills heads mid-round with recovery
    on, so senders mask the dead heads out of their action sets: relay
    choice then computes while the slot's pricing still gathers."""

    def build():
        config, nodes, bs = build_scenario("chaos-underwater-deep", 1)
        return SimulationEngine(config, QLECProtocol(), nodes=nodes, bs=bs)

    on, off, seen = run_pair(build, monkeypatch)
    assert on == off
    assert on["faults"]["injected"] > 0
    assert ("price", False) not in seen
    assert ("serves", True, True) in seen and ("serves", True, False) in seen


# Static k-means keeps its heads while they move: a table kept past its
# round would serve stale distances.
@pytest.mark.parametrize("name", ["qlec", "fcm", "kmeans"])
def test_mobile_run(name, monkeypatch):
    cfg = paper_config(seed=4, rounds=6).replace(
        mobility=MobilityConfig(speed=10.0)
    )
    on, off, seen = run_pair(
        lambda: SimulationEngine(cfg, PROTOCOLS[name]()), monkeypatch
    )
    assert on == off
    assert ("price", True) in seen
