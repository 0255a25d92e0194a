"""Tests for improved-DEEC cluster-head selection (Algorithms 2-3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.selection import (
    CELL_PAD,
    ImprovedDEECSelector,
    SelectionConfig,
    energy_threshold,
    _descending,
    rotation_threshold,
    spaced_greedy,
)
from repro.core.theory import cluster_radius
from repro.simulation.state import NetworkState
from tests.conftest import make_config


class TestEnergyThreshold:
    def test_eq4_values(self):
        init = np.array([1.0, 2.0])
        # r = R/2 -> factor 1 - 1/4 = 0.75
        np.testing.assert_allclose(energy_threshold(10, 20, init), [0.75, 1.5])

    def test_full_at_round_zero(self):
        np.testing.assert_allclose(energy_threshold(0, 20, np.array([1.0])), [1.0])

    def test_zero_at_final_round(self):
        np.testing.assert_allclose(energy_threshold(20, 20, np.array([1.0])), [0.0])

    def test_clamps_past_horizon(self):
        assert energy_threshold(50, 20, np.array([1.0]))[0] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            energy_threshold(1, 0, np.array([1.0]))
        with pytest.raises(ValueError):
            energy_threshold(-1, 10, np.array([1.0]))


class TestRotationThreshold:
    def test_eq3_at_phase_zero(self):
        """r mod (1/p) == 0 -> T = p."""
        p = np.array([0.1])
        assert rotation_threshold(p, 0)[0] == pytest.approx(0.1)

    def test_grows_within_epoch(self):
        p = np.array([0.1])
        t_early = rotation_threshold(p, 1)[0]
        t_late = rotation_threshold(p, 9)[0]
        assert t_late > t_early > 0.1

    def test_certain_at_epoch_end(self):
        """Late in the window the threshold saturates at 1."""
        p = np.array([0.5])
        assert rotation_threshold(p, 1)[0] == pytest.approx(1.0)

    @given(
        st.floats(min_value=1e-3, max_value=0.999),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=50, deadline=None)
    def test_always_a_probability(self, p, r):
        t = rotation_threshold(np.array([p]), r)[0]
        assert 0.0 <= t <= 1.0

    def test_rejects_invalid_p(self):
        with pytest.raises(ValueError):
            rotation_threshold(np.array([0.0]), 0)
        with pytest.raises(ValueError):
            rotation_threshold(np.array([1.5]), 0)
        with pytest.raises(ValueError):
            rotation_threshold(np.array([0.5]), -1)

    @staticmethod
    def mod_threshold(p, r):
        """Eq. (3) with the phase taken by ``np.mod`` over every node."""
        p = np.asarray(p, dtype=np.float64)
        phase = np.mod(r, 1.0 / p)
        denom = 1.0 - p * phase
        with np.errstate(divide="ignore"):
            t = np.where(denom > 1e-12, p / denom, 1.0)
        return np.clip(t, 0.0, 1.0)

    @pytest.mark.parametrize("r", [0, 1, 2, 3, 7, 10, 99, 100, 101, 316, 1000])
    def test_phase_fast_path_equals_mod(self, r):
        """Within the first epoch the phase is r itself, elsewhere fmod:
        bytewise the np.mod formulation, with p = 1/r exactly, integral
        epochs, r = 0 and r >= epoch all present."""
        m = np.arange(1, 400)
        rng = np.random.default_rng(r)
        p = np.concatenate([
            1.0 / m,                                  # integral epochs
            [1.0 / max(r, 1), 1.0 / (r + 1), 1.0],  # p = 1/r exactly
            np.nextafter(1.0 / m, 0.0), np.nextafter(1.0 / m, 1.0)[1:],
            rng.uniform(1e-4, 1.0, 500),
        ])
        assert rotation_threshold(p, r).tobytes() == self.mod_threshold(p, r).tobytes()
        for one in p[::97]:
            got = rotation_threshold(np.float64(one), r)
            assert got.tobytes() == self.mod_threshold(one, r).tobytes()


def fresh_state(**kwargs) -> NetworkState:
    return NetworkState(make_config(n_nodes=40, n_clusters=4, **kwargs))


class TestImprovedDEECSelector:
    def test_selects_alive_unique_heads(self):
        state = fresh_state()
        sel = ImprovedDEECSelector(4)
        result = sel.select(state)
        assert result.k >= 1
        assert len(np.unique(result.heads)) == result.k
        assert state.ledger.alive[result.heads].all()

    def test_promotion_tops_up_to_k(self):
        """Round 0: residual == threshold, so the random draw plus
        promotion must still produce exactly k heads."""
        state = fresh_state()
        sel = ImprovedDEECSelector(4)
        assert sel.select(state).k == 4

    def test_redundancy_reduction_enforces_spacing(self):
        state = fresh_state()
        sel = ImprovedDEECSelector(4)
        heads = sel.select(state).heads
        d_c = cluster_radius(4, state.config.deployment.side)
        pos = state.nodes.positions[heads]
        for i in range(len(heads)):
            for j in range(i + 1, len(heads)):
                assert np.linalg.norm(pos[i] - pos[j]) > d_c

    def test_no_spacing_without_reduction(self):
        state = fresh_state()
        cfg = SelectionConfig(use_redundancy_reduction=False)
        sel = ImprovedDEECSelector(4, cfg)
        result = sel.select(state)
        assert result.suppressed.size == 0

    def test_dead_nodes_never_selected(self):
        state = fresh_state()
        state.ledger.discharge(np.arange(20), 10.0, "tx")  # kill half
        sel = ImprovedDEECSelector(4)
        heads = sel.select(state).heads
        assert np.all(heads >= 20)

    def test_energy_threshold_excludes_drained_nodes(self):
        state = fresh_state()
        state.round_index = 1
        # Drain node 0 well below the Eq. (4) threshold at r=1.
        state.ledger.discharge(0, 0.15, "tx")
        sel = ImprovedDEECSelector(
            4, SelectionConfig(use_rotation=False, fallback_promotion=False)
        )
        p = sel._probabilities(state)
        eligible = sel._eligibility(state, p)
        assert not eligible[0]

    def test_rotation_blocks_recent_heads(self):
        state = fresh_state()
        state.last_ch_round[:] = 0  # everyone just served
        state.round_index = 1
        sel = ImprovedDEECSelector(
            4,
            SelectionConfig(use_energy_threshold=False, fallback_promotion=False),
        )
        p = sel._probabilities(state)
        assert not sel._eligibility(state, p).any()

    def test_measured_energy_estimate_keeps_expected_k(self):
        """With measured E_bar, sum(p_i) == k (the telescoping claim)."""
        state = fresh_state()
        sel = ImprovedDEECSelector(4, SelectionConfig(energy_estimate="measured"))
        p = sel._probabilities(state)
        assert p.sum() == pytest.approx(4.0, rel=1e-6)

    def test_linear_estimate_uses_eq2(self):
        state = fresh_state()
        state.round_index = 0
        sel = ImprovedDEECSelector(4, SelectionConfig(energy_estimate="linear"))
        p = sel._probabilities(state)
        # At r=0 Eq. (2) equals the true average, so sums to k as well.
        assert p.sum() == pytest.approx(4.0, rel=1e-6)

    def test_hello_charging_spends_energy(self):
        state = fresh_state()
        before = state.ledger.total_residual
        sel = ImprovedDEECSelector(
            4, SelectionConfig(charge_control_traffic=True)
        )
        sel.select(state)
        assert state.ledger.total_residual < before

    def test_no_hello_charge_by_default(self):
        state = fresh_state()
        before = state.ledger.total_residual
        ImprovedDEECSelector(4).select(state)
        assert state.ledger.total_residual == before

    def test_selector_validation(self):
        with pytest.raises(ValueError):
            ImprovedDEECSelector(0)
        with pytest.raises(ValueError):
            SelectionConfig(energy_estimate="bogus")
        with pytest.raises(ValueError):
            SelectionConfig(hello_bits=0)

    def test_all_dead_network_yields_no_heads(self):
        state = fresh_state()
        state.ledger.discharge(np.arange(state.n), 10.0, "tx")
        result = ImprovedDEECSelector(4).select(state)
        assert result.k == 0

    def test_heads_rotate_across_rounds(self):
        """Energy-aware rotation: over several rounds with drain, the
        union of heads is much larger than k."""
        state = fresh_state()
        sel = ImprovedDEECSelector(4)
        seen = set()
        for r in range(6):
            state.round_index = r
            result = sel.select(state)
            seen.update(int(h) for h in result.heads)
            state.mark_cluster_heads(result.heads)
            # Heads pay a visible cost so the next election avoids them.
            state.ledger.discharge(result.heads, 0.02, "tx")
        assert len(seen) >= 10


# ----------------------------------------------------------------------
# Exact spaced election (spaced_greedy + the partial energy order)
# ----------------------------------------------------------------------
def oracle_reduce(state, elected, d_c):
    """The per-candidate loop Algorithm 3 was first written as."""
    if elected.size <= 1:
        return elected, np.empty(0, dtype=np.intp)
    energy = state.ledger.residual[elected]
    order = elected[np.argsort(-energy, kind="stable")]
    positions = state.nodes.positions
    kept: list[int] = []
    suppressed: list[int] = []
    for h in order:
        if kept:
            d = np.linalg.norm(positions[kept] - positions[h], axis=1)
            if np.any(d <= d_c):
                suppressed.append(int(h))
                continue
        kept.append(int(h))
    return np.asarray(kept, dtype=np.intp), np.asarray(suppressed, dtype=np.intp)


def oracle_promote(state, heads, pools, k_target, d_c):
    """The per-candidate top-up loop over fully sorted pools."""
    positions = state.nodes.positions
    kept = [int(h) for h in heads]
    for pool in pools:
        if len(kept) >= k_target:
            break
        pool = np.asarray(pool, dtype=np.intp)
        pool = pool[~np.isin(pool, kept)]
        if pool.size == 0:
            continue
        order = pool[np.argsort(-state.ledger.residual[pool], kind="stable")]
        for cand in order:
            if len(kept) >= k_target:
                break
            if d_c > 0.0 and kept:
                d = np.linalg.norm(positions[kept] - positions[cand], axis=1)
                if np.any(d <= d_c):
                    continue
            kept.append(int(cand))
    return np.asarray(kept, dtype=np.intp)


class OracleSelector(ImprovedDEECSelector):
    """The selector with both spacing rules run by the oracle loops."""

    def _reduce_redundancy(self, state, elected):
        d_c = cluster_radius(self.k_target, state.config.deployment.side)
        return oracle_reduce(state, elected, d_c)

    def _promote(self, state, heads, candidates):
        d_c = (
            cluster_radius(self.k_target, state.config.deployment.side)
            if self.config.use_redundancy_reduction
            else 0.0
        )
        pools = (candidates, state.alive_indices())
        return oracle_promote(state, heads, pools, self.k_target, d_c)


def same(a, b):
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (a, b)


SIDE = 120.0


@st.composite
def election_cases(draw):
    """Small networks whose geometry and energies make the spacing and
    ordering decisions hard: lattices at exactly d_c (and at the index's
    cell side), coincident nodes, chains, crowds, and tied residuals."""
    n = draw(st.integers(1, 160))
    k = draw(st.integers(1, 12))
    return {
        "n": n,
        "k": k,
        "layout": draw(st.sampled_from(
            ["uniform", "lattice", "cells", "coincident", "line", "crowd"]
        )),
        "energy": draw(st.sampled_from(["equal", "levels", "uniform"])),
        "dead": draw(st.integers(0, 3)),
        "reduce": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
    }


def election_state(case):
    """A fresh, deterministic state for a drawn case."""
    n, k = case["n"], case["k"]
    rng = np.random.default_rng(case["seed"])
    d_c = cluster_radius(k, SIDE)
    layout = case["layout"]
    if layout == "uniform":
        pos = rng.uniform(0.0, SIDE, (n, 3))
    elif layout in ("lattice", "cells"):
        # On the d_c lattice every axis neighbour is exactly d_c away;
        # "cells" puts nodes on the index's cell boundaries instead.
        step = d_c if layout == "lattice" else d_c * (1.0 + CELL_PAD)
        origin = rng.uniform(-SIDE, SIDE, 3)
        pos = origin + step * rng.integers(0, 4, (n, 3))
    elif layout == "coincident":
        spots = rng.uniform(0.0, SIDE, (max(1, n // 8), 3))
        pos = spots[rng.integers(0, spots.shape[0], n)]
    elif layout == "crowd":
        # Most nodes within d_c of each other: the top-up rejects most
        # of its energy order and runs past the partial order's prefix.
        pos = SIDE / 2 + rng.uniform(-0.3, 0.3, (n, 3)) * d_c
        spread = rng.permutation(n)[: n // 10]
        pos[spread] = rng.uniform(0.0, SIDE, (spread.size, 3))
    else:
        # A line at spacings around d_c: long chains of clashes.
        pos = np.zeros((n, 3))
        pos[:, 0] = np.cumsum(rng.choice([0.5, 1.0, 1.5], n)) * d_c
    state = NetworkState(make_config(n_nodes=n, n_clusters=k, side=SIDE,
                                     seed=case["seed"]))
    state.update_positions(pos)
    drain = {"equal": np.zeros(n),
             "levels": rng.choice([0.0, 0.01, 0.02], n),
             "uniform": rng.uniform(0.0, 0.1, n)}[case["energy"]]
    state.ledger.discharge(np.arange(n), drain, "tx")
    dead = rng.permutation(n)[: case["dead"]]
    state.ledger.discharge(dead, 10.0, "tx")
    return state


def subset(rng, n, share):
    return np.flatnonzero(rng.uniform(size=n) < share).astype(np.intp)


class TestExactSpacedElection:
    """The array election equals the per-candidate loops bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(election_cases(), st.sampled_from([0.0, 0.05, 0.5, 1.0]),
           st.sampled_from([0.0, 0.1, 0.6, 1.0]))
    def test_methods_equal_loops(self, case, elect_share, pool_share):
        state = election_state(case)
        rng = np.random.default_rng(case["seed"] + 1)
        cfg = SelectionConfig(use_redundancy_reduction=case["reduce"])
        sel = ImprovedDEECSelector(case["k"], cfg)
        ref = OracleSelector(case["k"], cfg)
        # Empty, single and larger elected sets; ``k_target`` met or not.
        elected = subset(rng, state.n, elect_share)
        if case["reduce"]:
            heads, suppressed = sel._reduce_redundancy(state, elected)
            want_heads, want_suppressed = ref._reduce_redundancy(state, elected)
            same(heads, want_heads)
            same(suppressed, want_suppressed)
        else:
            heads = elected
        # Candidates overlap the heads, and may be too few to fill.
        candidates = subset(rng, state.n, pool_share)
        same(sel._promote(state, heads, candidates),
             ref._promote(state, heads, candidates))

    @settings(max_examples=150, deadline=None)
    @given(election_cases(), st.integers(0, 40), st.booleans())
    def test_select_equals_loops(self, case, round_index, rotation):
        cfg = SelectionConfig(use_redundancy_reduction=case["reduce"],
                              use_rotation=rotation)
        results = []
        for selector in (OracleSelector, ImprovedDEECSelector):
            state = election_state(case)
            state.round_index = round_index
            state.last_ch_round[::3] = round_index - 1
            result = selector(case["k"], cfg).select(state)
            results.append((result, state.protocol_rng.bit_generator.state))
        (want, want_rng), (got, got_rng) = results
        for name in ("heads", "suppressed", "candidates", "elected"):
            same(getattr(got, name), getattr(want, name))
        assert got.promoted == want.promoted
        assert got_rng == want_rng

    def _pair(self, positions, residual_drain, k):
        state = NetworkState(make_config(n_nodes=len(positions), n_clusters=k,
                                         side=SIDE))
        state.update_positions(np.asarray(positions, float))
        state.ledger.discharge(np.arange(state.n), residual_drain, "tx")
        return state

    def test_exactly_d_c_apart_clash(self):
        """Spacing is strictly farther than d_c: two nodes exactly d_c
        apart on an axis do not both stand."""
        d_c = cluster_radius(2, SIDE)
        state = self._pair([(0.0, 0.0, 0.0), (d_c, 0.0, 0.0)], [0.0, 0.01], 2)
        assert np.linalg.norm(state.nodes.positions[1]) == d_c
        sel = ImprovedDEECSelector(2, SelectionConfig(fallback_promotion=False))
        heads, suppressed = sel._reduce_redundancy(state, np.arange(2))
        same(heads, np.array([0], dtype=np.intp))
        same(suppressed, np.array([1], dtype=np.intp))

    def test_tied_prefix_follows_pool_order(self):
        """With every residual tied, the partial order must hand out
        the lowest pool positions first, exactly as the stable sort."""
        rng = np.random.default_rng(5)
        state = self._pair(rng.uniform(0.0, SIDE, (200, 3)), 0.0, 3)
        pool = rng.permutation(200).astype(np.intp)
        sel, ref = ImprovedDEECSelector(3), OracleSelector(3)
        empty = np.empty(0, dtype=np.intp)
        got = sel._promote(state, empty, pool)
        same(got, ref._promote(state, empty, pool))
        # Ties with a few higher residuals mixed in.
        state.ledger.discharge(pool[::7], 0.05, "tx")
        state.ledger.discharge(pool[::2], 0.01, "tx")
        same(sel._promote(state, empty, pool), ref._promote(state, empty, pool))

    def test_prefix_runs_out_and_alive_pool_fills(self):
        """Most candidates crowd one held head, so the exact prefix of the
        energy order is spent before the demand is met (the full order
        takes over); the candidates then run out and alive nodes fill."""
        rng = np.random.default_rng(9)
        far = rng.uniform(0.0, SIDE, (30, 3))
        crowd = np.tile([[1.0, 1.0, 1.0]], (80, 1))
        state = self._pair(np.vstack([crowd, far]),
                           np.r_[np.zeros(80), np.full(30, 0.05)], 6)
        heads = np.array([0], dtype=np.intp)
        candidates = np.arange(0, 100, dtype=np.intp)  # 20 of the far ones
        got = ImprovedDEECSelector(6)._promote(state, heads, candidates)
        same(got, OracleSelector(6)._promote(state, heads, candidates))
        assert got.size == 6
        # Fewer usable candidates than the demand: alive nodes fill in.
        candidates = np.arange(0, 82, dtype=np.intp)
        got = ImprovedDEECSelector(6)._promote(state, heads, candidates)
        same(got, OracleSelector(6)._promote(state, heads, candidates))
        assert got.size == 6 and np.any(got >= 82)

    def test_engine_rounds_equal_loops(self, monkeypatch):
        """Ten drained rounds at N = 5000, k = 100: every election equals
        the loops' on the same state and RNG."""
        from repro.config import DeploymentConfig, SimulationConfig, TrafficConfig
        from repro.core import QLECProtocol
        from repro.simulation.engine import SimulationEngine

        calls = []
        select = ImprovedDEECSelector.select

        def checked(self, state):
            rng = state.protocol_rng.bit_generator
            before = rng.state
            want = select(OracleSelector(self.k_target, self.config), state)
            want_rng, rng.state = rng.state, before
            got = select(self, state)
            for name in ("heads", "suppressed", "candidates", "elected"):
                same(getattr(got, name), getattr(want, name))
            assert rng.state == want_rng
            calls.append(got.promoted)
            return got

        monkeypatch.setattr(ImprovedDEECSelector, "select", checked)
        config = SimulationConfig(
            deployment=DeploymentConfig(n_nodes=5000, side=120.0,
                                        initial_energy=0.5),
            traffic=TrafficConfig(mean_interarrival=8.0),
            rounds=10, n_clusters=100, seed=3, backend="numpy",
        )
        SimulationEngine(config, QLECProtocol()).run()
        assert len(calls) == 10 and any(calls)


class TestSpacedGreedy:
    def test_cap_and_kept(self):
        pos = np.array([[0.0, 0, 0], [5.0, 0, 0], [20.0, 0, 0], [40.0, 0, 0]])
        order = np.arange(4)
        same(spaced_greedy(pos, order, np.empty(0, np.intp), 10.0),
             np.array([0, 2, 3]))
        same(spaced_greedy(pos, order, np.array([3]), 10.0, cap=3),
             np.array([0, 2]))
        same(spaced_greedy(pos, order, np.array([3]), 10.0, cap=1),
             np.empty(0, np.intp))

    def test_no_spacing_takes_the_order_prefix(self):
        pos = np.zeros((5, 3))
        same(spaced_greedy(pos, np.arange(5), np.array([0]), 0.0, cap=3),
             np.arange(2))

    def test_places_are_ascending_and_spaced(self):
        rng = np.random.default_rng(2)
        pos = rng.uniform(0.0, 50.0, (300, 3))
        order = rng.permutation(300)
        took = spaced_greedy(pos, order, np.empty(0, np.intp), 6.0)
        assert np.all(np.diff(took) > 0)
        chosen = pos[order[took]]
        gaps = np.linalg.norm(chosen[:, None] - chosen[None, :], axis=-1)
        assert np.all(gaps[np.triu_indices(took.size, 1)] > 6.0)

    #: ``(k, lowest x, x of a node, x of a node exactly within d_c of
    #: it)`` on one axis: measured from the lowest node in cells of
    #: exactly d_c, the last two would fall two cells apart.
    EDGE_TRIPLES = [
        (1, -65.87737260418803, 306.332921935452, 380.77498084338004),
        (2, -47.461582817966104, 247.96192373484286, 307.04662504540465),
        (3, -53.96333394039361, 152.4976293783503, 204.11287020803627),
        (4, -39.69012909299802, 100.99654643042095, 147.89210493822728),
    ]

    @pytest.mark.parametrize("k, lo, a, b", EDGE_TRIPLES,
                             ids=[f"k{t[0]}" for t in EDGE_TRIPLES])
    def test_padding_keeps_clashes_across_cell_edges(self, k, lo, a, b):
        d_c = cluster_radius(k, SIDE)
        assert abs(b - a) <= d_c
        assert np.floor((b - lo) / d_c) - np.floor((a - lo) / d_c) == 2
        pos = np.zeros((3, 3))
        pos[:, 0] = [lo, a, b]
        # Settled within one block, and against a held node.
        same(spaced_greedy(pos, np.array([1, 2, 0]), np.empty(0, np.intp), d_c),
             np.array([0, 2]))
        same(spaced_greedy(pos, np.array([2, 0]), np.array([1]), d_c),
             np.array([1]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=1, max_size=80),
       st.integers(1, 90), st.integers(0, 2**16))
def test_descending_pieces_are_the_stable_order(values, m, seed):
    """The exact partial order: the first piece is the full stable
    order's first ``m`` nodes, ties broken by pool position, and the
    pieces together are the full order."""
    values = np.asarray(values)
    rng = np.random.default_rng(seed)
    pool = rng.permutation(values.size)[: rng.integers(1, values.size + 1)]
    full = pool[np.argsort(-values[pool], kind="stable")]
    pieces = list(_descending(values, pool, m))
    same(pieces[0], full[:m])
    same(np.concatenate(pieces), full)
