"""Tests for the Q-routing layer (Algorithm 4)."""

import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import QLearningConfig
from repro.core import routing
from repro.core.rewards import RewardModel
from repro.core.routing import QRouter
from repro.network.node import BaseStation
from repro.simulation.state import NetworkState
from tests.conftest import make_config


def make_router(**router_kwargs):
    config = make_config(n_nodes=20, n_clusters=3, seed=5)
    state = NetworkState(config)
    rewards = RewardModel(
        config.qlearning,
        state.radio,
        config.traffic.packet_bits,
        energy_scale=float(state.ledger.initial.mean()),
    )
    router = QRouter(state, rewards, config.qlearning, **router_kwargs)
    return state, router


HEADS = np.array([2, 7, 11])


class TestQValues:
    def test_action_set_is_heads_plus_bs(self):
        state, router = make_router()
        q, targets = router.q_values(0, HEADS)
        assert q.shape == (4,)
        assert list(targets) == [2, 7, 11, state.bs_index]

    def test_bs_action_heavily_penalised(self):
        _, router = make_router()
        q, targets = router.q_values(0, HEADS)
        assert q[-1] == min(q)
        assert q[-1] < q[:-1].min() - 50.0

    def test_evaluation_counter_tracks_k_plus_1(self):
        _, router = make_router()
        router.q_values(0, HEADS)
        router.q_values(1, HEADS)
        assert router.q_evaluations == 2 * (len(HEADS) + 1)

    def test_q_reflects_link_estimates(self):
        """Tanking the ACK estimate of one head must lower its Q."""
        state, router = make_router()
        q_before, _ = router.q_values(0, HEADS)
        for _ in range(30):
            state.link_estimator.update(0, 7, False)
        q_after, _ = router.q_values(0, HEADS)
        assert q_after[1] < q_before[1]


class TestChoose:
    def test_choose_returns_head_not_bs(self):
        state, router = make_router()
        choice = router.choose(0, HEADS)
        assert choice in set(HEADS.tolist())

    def test_choose_updates_v_to_max_q(self):
        _, router = make_router()
        q, _ = router.q_values(0, HEADS)
        router_fresh = router  # same state; V was not yet written for 0
        router_fresh.choose(0, HEADS)
        assert router_fresh.v[0] == pytest.approx(float(q.max()), rel=1e-9)

    def test_empty_heads_falls_back_to_bs(self):
        state, router = make_router()
        assert router.choose(0, np.array([], dtype=int)) == state.bs_index

    def test_v_update_counted(self):
        _, router = make_router()
        router.choose(0, HEADS)
        router.choose(1, HEADS)
        assert router.v.update_count == 2

    def test_sampled_td_moves_partially(self):
        _, router = make_router(learning_rate=0.5)
        q, _ = router.q_values(0, HEADS)
        router.choose(0, HEADS)
        assert router.v[0] == pytest.approx(0.5 * float(q.max()), rel=1e-6)

    def test_epsilon_explores(self):
        state, router = make_router(epsilon=1.0)
        rng = np.random.default_rng(0)
        picks = {router.choose(0, HEADS, rng=rng) for _ in range(60)}
        assert state.bs_index in picks  # pure exploration hits the BS too
        assert len(picks) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            make_router(epsilon=1.5)
        with pytest.raises(ValueError):
            make_router(learning_rate=0.0)


class TestCHBackup:
    def test_backup_writes_head_value(self):
        _, router = make_router()
        router.ch_backup(2)
        assert router.v[2] != 0.0
        assert router.v.update_count == 1

    def test_backup_contracts_to_fixed_point(self):
        """Iterating the head backup converges (gamma-contraction)."""
        _, router = make_router()
        prev = None
        for _ in range(500):
            router.ch_backup(2)
            cur = router.v[2]
            if prev is not None and abs(cur - prev) < 1e-12:
                break
            prev = cur
        else:
            pytest.fail("head backup did not converge")

    def test_compressed_bits_raise_head_value(self):
        """Pricing the uplink at compressed bits must give a head a
        better (or equal) value than full-size pricing would."""
        state, router = make_router()
        router.ch_backup(2)
        v_compressed = router.v[2]
        # Redo with a router whose compression ratio is 1 (no gain).
        config = state.config.replace(compression_ratio=0.999)
        state2 = NetworkState(config)
        rewards2 = RewardModel(
            config.qlearning, state2.radio, config.traffic.packet_bits,
            energy_scale=float(state2.ledger.initial.mean()),
        )
        router2 = QRouter(state2, rewards2, config.qlearning)
        router2.ch_backup(2)
        assert v_compressed >= router2.v[2]


class TestRelax:
    def test_relax_converges_and_counts(self):
        state, router = make_router()
        members = np.setdiff1d(np.arange(state.n), HEADS)
        sweeps = router.relax(members, HEADS)
        assert 1 <= sweeps < router.cfg.max_backups
        assert router.v.update_count == sweeps * members.size

    def test_relax_fixed_point_stable(self):
        state, router = make_router()
        members = np.setdiff1d(np.arange(state.n), HEADS)
        router.relax(members, HEADS)
        v_before = router.v.values.copy()
        router.relax(members, HEADS)
        np.testing.assert_allclose(router.v.values, v_before, atol=1e-5)

    def test_relax_empty_inputs(self):
        _, router = make_router()
        assert router.relax(np.array([], dtype=int), HEADS) == 0
        assert router.relax(np.array([0]), np.array([], dtype=int)) == 0


def one_shot_q_block(router, nodes, heads):
    """The untiled relay-choice block, written out as plain numpy: one
    einsum distance block, the radio's ``y``, one gathered ``p`` block,
    and the Eq. (16)-(20) combine as whole-array expressions."""
    st = router.state
    targets = np.concatenate([heads, [st.bs_index]]).astype(np.intp)
    is_bs = targets == st.bs_index
    pos = st.nodes.positions
    d = np.empty((nodes.size, targets.size))
    d[:, is_bs] = st.topology.d_to_bs[nodes][:, None]
    diff = pos[targets[~is_bs]][None, :, :] - pos[nodes][:, None, :]
    d[:, ~is_bs] = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    radio = st.radio.config
    amp = router.rewards.bits * np.where(
        d < radio.d0, radio.eps_fs * d * d, radio.eps_mp * d ** 4
    )
    y = amp / router.rewards._cost_ref
    p = np.asarray(st.link_estimator.estimates[np.ix_(nodes, targets)])
    e_dst = np.where(is_bs, 0.0, st.ledger.residual[np.where(is_bs, 0, targets)])
    x_src = router.rewards.x(st.ledger.residual[nodes])[:, None]
    x_dst = router.rewards.x(e_dst)
    c = router.rewards.cfg
    r_s = -c.g + c.alpha1 * (x_src + x_dst) - c.alpha2 * y
    r_s = r_s - np.where(is_bs, c.bs_penalty, 0.0)
    r_f = -c.g + c.beta1 * x_src - c.beta2 * y
    r_t = p * r_s + (1.0 - p) * r_f
    v_t = router.v.get_many(targets)
    v_s = router.v.get_many(nodes)[:, None]
    q = r_t + router.cfg.gamma * (p * v_t + (1.0 - p) * v_s)
    return q, q.max(axis=1), targets


def busy_router(shared, seed=3, **router_kwargs):
    """A router mid-run: uneven residuals, learned link estimates and a
    non-trivial V table, so every term of the Q block varies."""
    config = make_config(n_nodes=60, n_clusters=6, seed=seed,
                         estimator_shared=shared)
    state = NetworkState(config)
    rewards = RewardModel(
        config.qlearning, state.radio, config.traffic.packet_bits,
        energy_scale=float(state.ledger.initial.mean()),
    )
    router = QRouter(state, rewards, config.qlearning, **router_kwargs)
    rng = np.random.default_rng(seed)
    state.ledger.discharge_many(
        np.arange(state.n), rng.uniform(0.0, 0.15, state.n), "tx"
    )
    est = state.link_estimator
    for _ in range(200):
        est.update(int(rng.integers(state.n)), int(rng.integers(state.n + 1)),
                   bool(rng.uniform() < 0.6))
    router.v.set_many(np.arange(state.n + 1), rng.normal(-5.0, 2.0, state.n + 1))
    return state, router


SENDERS = np.arange(0, 60, 2)[np.arange(0, 60, 2) % 7 != 0]
BLOCK_HEADS = np.array([7, 14, 21, 28, 35, 42], dtype=np.intp)


class TestTiledQBlock:
    """The tiled block equals the one-shot block bit for bit, for every
    tile size: q, v_new, targets, picks and protocol-RNG draws."""

    @pytest.fixture(params=[1, 7, "M-1", "M", "M+5"])
    def tile(self, request, monkeypatch):
        m = SENDERS.size
        rows = {"M-1": m - 1, "M": m, "M+5": m + 5}.get(request.param,
                                                     request.param)
        monkeypatch.setattr(routing, "tile_rows", lambda *_: rows)
        return rows

    @pytest.mark.parametrize("shared", [True, False])
    def test_q_block_bits(self, tile, shared):
        _, router = busy_router(shared)
        want = one_shot_q_block(router, SENDERS, BLOCK_HEADS)
        got = router._q_block(SENDERS, BLOCK_HEADS)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("shared", [True, False])
    def test_dead_head_masked_action_set(self, tile, shared):
        state, router = busy_router(shared)
        state.ledger.discharge_many(BLOCK_HEADS[[1, 4]], np.full(2, 10.0), "tx")
        live = BLOCK_HEADS[state.ledger.alive[BLOCK_HEADS]]
        assert live.size == BLOCK_HEADS.size - 2
        want = one_shot_q_block(router, SENDERS, live)
        got = router._q_block(SENDERS, live)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_bs_only_action_set(self, tile):
        _, router = busy_router(True)
        empty = np.array([], dtype=np.intp)
        q_want, _, t_want = one_shot_q_block(router, SENDERS, empty)
        q, _, targets = router._q_block(SENDERS, empty)
        assert q.shape == (SENDERS.size, 1)
        assert q.tobytes() == q_want.tobytes()
        assert targets.tobytes() == t_want.tobytes()

    @pytest.mark.parametrize("learning_rate", [None, 0.3])
    @pytest.mark.parametrize("shared", [True, False])
    def test_picks_v_and_rng_draws(self, tile, shared, learning_rate):
        """choose_many through the tiles vs the one-shot block fed to the
        same policy: same relays, same V table, same generator state."""
        kwargs = dict(epsilon=0.3, learning_rate=learning_rate)
        _, tiled = busy_router(shared, **kwargs)
        _, ref = busy_router(shared, **kwargs)
        rng_tiled = np.random.default_rng(99)
        rng_ref = np.random.default_rng(99)
        picks = tiled.choose_many(SENDERS, BLOCK_HEADS, rng=rng_tiled)
        q, v_new, targets = one_shot_q_block(ref, SENDERS, BLOCK_HEADS)
        want = targets[ref.policy.select_batch(q, rng_ref)]
        if learning_rate is not None:
            old = ref.v.get_many(SENDERS)
            v_new = old + learning_rate * (v_new - old)
        assert picks.tobytes() == want.tobytes()
        assert tiled.v.get_many(SENDERS).tobytes() == v_new.tobytes()
        assert rng_tiled.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("shared", [True, False])
def test_block_budget_smaller_than_one_tile(shared):
    """A max_block_mb below one sender row's footprint still tiles
    (one row at a time) and changes nothing."""
    state, router = busy_router(shared)
    assert routing.tile_rows(BLOCK_HEADS.size + 1, 1e-6) == 1
    state.config = state.config.replace(max_block_mb=1e-6)
    want = one_shot_q_block(router, SENDERS, BLOCK_HEADS)
    got = router._q_block(SENDERS, BLOCK_HEADS)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# Exact candidate pruning (QRouter._choose_pruned)
# ----------------------------------------------------------------------
LATTICE = st.integers(0, 5)
POINT = st.tuples(LATTICE, LATTICE, LATTICE)


@st.composite
def pruning_cases(draw):
    """Small networks on a coarse lattice, so coincident heads, heads
    equidistant from a sender, senders on top of heads and exact Q ties
    are common; the spacing spans both sides of the radio's d0."""
    heads = draw(st.lists(POINT, min_size=1, max_size=24))
    senders = draw(st.lists(POINT, min_size=1, max_size=16))
    return {
        "heads": heads,
        "senders": senders,
        "coincide": draw(st.integers(0, 3)),
        "spacing": draw(st.sampled_from([0.002, 2.5, 20.0, 45.0])),
        "bs": draw(POINT),
        "g": draw(st.sampled_from([0.1, 0.07])),
        "bs_penalty": draw(st.sampled_from([0.0, 0.3, 100.0])),
        "weights": draw(st.sampled_from(
            [(1.05, 1.05), (0.4, 1.05), (1.05, 0.4), (2.0, 0.05)]
        )),
        "shared": draw(st.booleans()),
        "p": draw(st.sampled_from(["one", "levels", "uniform"])),
        "residual": draw(st.sampled_from(["equal", "levels", "uniform"])),
        "v": draw(st.sampled_from(["zero", "levels", "normal"])),
        "dead": draw(st.integers(0, 3)),
        "learning_rate": draw(st.sampled_from([None, 0.3])),
        "rng": draw(st.sampled_from([None, 11])),
        "seed": draw(st.integers(0, 2**16)),
    }


def pruning_router(case):
    """A fresh ``(state, router, senders, heads)`` for a drawn case:
    deterministic, so every call builds the same network."""
    heads_pos = list(case["heads"])
    for i in range(min(case["coincide"], len(heads_pos))):
        heads_pos.append(heads_pos[i])  # a second head on the same spot
    pos = np.array(heads_pos + list(case["senders"]), float) * case["spacing"]
    k, n = len(heads_pos), len(pos)
    alpha2, beta2 = case["weights"]
    config = make_config(
        n_nodes=n, n_clusters=k, seed=case["seed"],
        estimator_shared=case["shared"],
        qlearning=QLearningConfig(
            g=case["g"], alpha2=alpha2, beta2=beta2,
            bs_penalty=case["bs_penalty"],
        ),
    )
    state = NetworkState(config)
    state.bs = BaseStation(tuple(float(c) * case["spacing"] for c in case["bs"]))
    state.update_positions(pos)
    rng = np.random.default_rng(case["seed"])
    levels = np.array([0.0, 0.25, 0.5, 1.0])
    if case["residual"] != "equal":
        drain = (rng.uniform(0.0, 0.15, n) if case["residual"] == "uniform"
                 else rng.choice([0.0, 0.05, 0.1], n))
        state.ledger.discharge_many(np.arange(n), drain, "tx")
    heads = np.arange(k, dtype=np.intp)
    if case["dead"]:
        dead = heads[: case["dead"]]
        state.ledger.discharge_many(dead, np.full(dead.size, 10.0), "tx")
        heads = heads[state.ledger.alive[heads]]  # the engine's dead-head mask
    est = state.link_estimator
    shape = est._shared_row.shape if case["shared"] else est._est.shape
    p = {"one": np.ones(shape), "levels": rng.choice(levels, shape),
         "uniform": rng.uniform(0.0, 1.0, shape)}[case["p"]]
    (est._shared_row if case["shared"] else est._est)[...] = p
    rewards = RewardModel(
        config.qlearning, state.radio, config.traffic.packet_bits,
        energy_scale=float(state.ledger.initial.mean()),
    )
    router = QRouter(state, rewards, config.qlearning,
                     learning_rate=case["learning_rate"])
    v = {"zero": np.zeros(n + 1), "levels": rng.choice(-levels * 4.0, n + 1),
         "normal": rng.normal(-3.0, 2.0, n + 1)}[case["v"]]
    router.v.set_many(np.arange(n + 1), v)
    return state, router, np.arange(k, n, dtype=np.intp), heads


#: Heads on a 90 m lattice and a layer of senders between them: the
#: bound rules out most pairs.
SPREAD_CASE = {
    "heads": [(x, y, z) for x in range(0, 6, 2) for y in range(0, 6, 2)
              for z in range(0, 6, 2)],
    "senders": [(x, y, 1) for x in range(6) for y in range(6)],
    "coincide": 0, "spacing": 45.0, "bs": (3, 3, 3),
    "g": 0.1, "bs_penalty": 100.0, "weights": (1.05, 1.05),
    "shared": True, "p": "uniform", "residual": "uniform", "v": "zero", "dead": 0,
    "learning_rate": None, "rng": 11, "seed": 2,
}


def _generator(case):
    return None if case["rng"] is None else np.random.default_rng(case["rng"])


def _rng_state(rng):
    return None if rng is None else rng.bit_generator.state


class TestPrunedRelayChoice:
    """The pruned greedy path equals the full block + select_batch on
    picks, v_new, the V table and the protocol-RNG stream, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(pruning_cases())
    def test_pruned_equals_block(self, case):
        _, ref, senders, heads = pruning_router(case)
        if heads.size == 0:
            return
        rng_ref = _generator(case)
        q, v_want, targets = ref._q_block(senders, heads)
        want = targets[ref.policy.select_batch(q, rng_ref)]

        _, router, _, _ = pruning_router(case)
        rng = _generator(case)
        got = router._choose_pruned(senders, heads, rng)
        assert got is not None
        picks, v_new = got
        assert picks.tobytes() == want.tobytes()
        assert v_new.tobytes() == v_want.tobytes()
        assert _rng_state(rng) == _rng_state(rng_ref)

        # Through choose_many: the dispatch, the V write and learning_rate.
        tables = []
        for threshold in (1, 10**9):
            _, r, _, _ = pruning_router(case)
            g = _generator(case)
            with mock.patch.object(routing, "PRUNE_MIN_ACTIONS", threshold):
                chosen = r.choose_many(senders, heads, g)
            tables.append((chosen.tobytes(), r.v.values.tobytes(),
                           _rng_state(g), r.q_evaluations))
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("g", [0.07, 0.13])
    def test_tight_bound_at_millimetre_range(self, g):
        """Where the bound is tight (p = 1, equal residuals and V) and
        links are millimetres long, costs are ~1e-10 and the rounding of
        q is as large as the margin between a tie and the threshold:
        only the slack keeps the tied heads in."""
        for seed in range(20):
            draw = np.random.default_rng(seed).integers(0, 6, (22, 3))
            case = {
                "heads": [tuple(map(int, c)) for c in draw[:12]],
                "senders": [tuple(map(int, c)) for c in draw[12:]],
                "coincide": 0, "spacing": 0.002, "bs": (5, 5, 5), "g": g,
                "bs_penalty": 100.0, "weights": (1.05, 1.05),
                "shared": True, "p": "one", "residual": "equal", "v": "zero",
                "dead": 0, "learning_rate": None, "rng": 11, "seed": seed,
            }
            _, ref, senders, heads = pruning_router(case)
            rng_ref = _generator(case)
            q, v_want, targets = ref._q_block(senders, heads)
            want = targets[ref.policy.select_batch(q, rng_ref)]
            _, router, _, _ = pruning_router(case)
            rng = _generator(case)
            picks, v_new = router._choose_pruned(senders, heads, rng)
            assert picks.tobytes() == want.tobytes()
            assert v_new.tobytes() == v_want.tobytes()
            assert _rng_state(rng) == _rng_state(rng_ref)

    def test_ties_and_bs_rows_are_exercised(self):
        """A case the property must cover, pinned: coincident heads tie
        exactly (the generator draws among them), and a sender next to a
        penalty-free BS picks the BS."""
        case = {
            "heads": [(0, 0, 0), (4, 4, 4), (0, 4, 0), (4, 0, 4)],
            "senders": [(1, 0, 0), (0, 1, 0), (4, 4, 3), (2, 2, 2), (5, 5, 5)],
            "coincide": 2, "spacing": 45.0, "bs": (5, 5, 5),
            "g": 0.1, "bs_penalty": 0.0, "weights": (1.05, 1.05), "shared": True,
            "p": "one", "residual": "equal", "v": "zero", "dead": 0,
            "learning_rate": None, "rng": 11, "seed": 1,
        }
        state, ref, senders, heads = pruning_router(case)
        rng_ref = _generator(case)
        q, _, targets = ref._q_block(senders, heads)
        want = targets[ref.policy.select_batch(q, rng_ref)]
        _, router, _, _ = pruning_router(case)
        rng = _generator(case)
        picks, _ = router._choose_pruned(senders, heads, rng)
        assert picks.tobytes() == want.tobytes()
        assert _rng_state(rng) == _rng_state(rng_ref)
        assert _rng_state(rng) != _rng_state(_generator(case))  # a tie drew
        assert state.bs_index in picks

    def test_prunes_most_pairs(self, monkeypatch):
        """The bound rules out most (sender, head) pairs on a spread-out
        head set; only the survivors are scored."""
        _, router, senders, heads = pruning_router(SPREAD_CASE)
        scored = []
        score = QRouter._score

        def spy(self, nodes, targets, *args):
            scored.append(np.size(targets))
            return score(self, nodes, targets, *args)

        monkeypatch.setattr(QRouter, "_score", spy)
        assert router._choose_pruned(senders, heads, None) is not None
        # Two exact columns per sender (nearby head, BS), then the rest.
        assert scored[0] == 2 * senders.size
        assert scored[1] < 0.25 * senders.size * heads.size
        assert router.q_evaluations == senders.size * (heads.size + 1)

    @pytest.mark.parametrize("shared", [True, False])
    def test_index_follows_moving_heads(self, shared):
        """The same head set at new positions (mobility) rebuilds the
        index instead of reading a stale one."""
        case = dict(SPREAD_CASE, shared=shared)
        state, router, senders, heads = pruning_router(case)
        perm = np.random.default_rng(0).permutation(heads.size)
        for _ in range(3):
            _, ref, _, _ = pruning_router(case)
            ref.state.update_positions(state.nodes.positions)
            q, v_want, targets = ref._q_block(senders, heads)
            picks, v_new = router._choose_pruned(senders, heads, None)
            assert picks.tobytes() == targets[q.argmax(axis=1)].tobytes()
            assert v_new.tobytes() == v_want.tobytes()
            moved = state.nodes.positions.copy()
            moved[heads] = moved[heads[perm]]  # the heads trade places
            state.update_positions(moved)

    def test_index_is_not_pickled(self):
        """The index is derived scratch state: a router pickles the same
        bytes before and after building it, and rebuilds it on demand."""
        _, router = busy_router(True)
        before = pickle.dumps(router)
        router._choose_pruned(SENDERS, BLOCK_HEADS, None)
        assert router._grid is not None
        router.q_evaluations = 0  # the call's one other trace
        assert pickle.dumps(router) == before
        assert pickle.loads(before)._grid is None

    def test_bound_needs_positive_cost_weights(self):
        state, router = busy_router(True)
        router.rewards.cfg = QLearningConfig(alpha2=0.0)
        assert router._choose_pruned(SENDERS, BLOCK_HEADS, None) is None
