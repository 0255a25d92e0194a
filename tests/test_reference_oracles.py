"""The earlier numpy definitions of the paper-round hot paths, kept
verbatim as oracles.

``NumpyBackend.grouped_discharge`` once grouped charges with
``np.unique(return_inverse=True)``; the EWMA folds grouped with
``np.unique``/``np.repeat`` and raised ``1 - a`` to each power inline;
``fuzzy_c_means`` evaluated its objective on every iteration; the
channel and radio pricing wrapped their checks in ``np.any`` and
``np.errstate``.  The library now does the same arithmetic with fewer
calls (one stable argsort, the estimator's ``pow_table``, the objective
once).  The functions below are those earlier bodies, and every
property asserts the new code equals them **bitwise**.

The pruned relay choice, its head index, ``distances_many`` and the
Poisson arrivals once gathered ``(N, 3)`` coordinate rows and built a
dense ``(N,)`` count vector per slot; they now gather 1-D coordinate
columns and return the producing nodes alone.  Their earlier bodies are
here too, with ``LinkEstimator.pairs``, which only the row path read.
As module functions they call each other where the methods called
``self``, and the relay choice builds its index per call instead of
caching it.  ``old_amplifier_energy`` is also the body that raised
every link to the fourth power.
"""

import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.fcm import FCMResult, fuzzy_c_means
from repro.config import RadioConfig, TrafficConfig
from repro.core.routing import (
    BOUND_SLACK,
    GRID_CHUNK,
    GRID_DEPTH,
    RADIUS_MARGIN,
    HeadGrid,
)
from repro.energy.battery import EnergyLedger
from repro.energy.radio import amplifier_energy
from repro.kernels import NumpyBackend
from repro.kernels.base import euclidean, euclidean_columns
from repro.kernels.numpy_backend import expected_q_tree
from repro.network.channel import delivery_probability
from repro.network.node import NodeArray
from repro.network.topology import pairwise_distances
from repro.simulation.state import NetworkState
from repro.simulation.traffic import PoissonTraffic
from tests.conftest import make_config
from tests.core.test_routing import pruning_router

BK = NumpyBackend()
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
#: How a case lays out its indices: repeated, repeated but in order, a
#: permutation (unique, unsorted), strictly increasing, or one element.
LAYOUTS = st.sampled_from(["dup", "sorted-dup", "unsorted", "sorted", "single"])


# ----------------------------------------------------------------------
# The earlier definitions, verbatim
# ----------------------------------------------------------------------
def old_grouped_discharge(residual, alive, idx, amounts, death_line):
    uniq, inverse = np.unique(idx, return_inverse=True)
    agg = np.bincount(inverse, weights=amounts, minlength=uniq.size)
    live = alive[uniq]
    uniq = uniq[live]
    agg = agg[live]
    if uniq.size == 0:
        return np.empty(0, dtype=np.float64)
    before = residual[uniq]
    after = np.maximum(before - agg, 0.0)
    residual[uniq] = after
    newly_dead = uniq[after <= death_line]
    if newly_dead.size:
        alive[newly_dead] = False
    return before - after


def old_discharge_many(ledger, idx, amounts, category="tx"):
    idx = np.atleast_1d(np.asarray(idx))
    if idx.dtype == bool:
        idx = np.flatnonzero(idx)
    amounts = np.broadcast_to(
        np.asarray(amounts, dtype=np.float64), idx.shape
    )
    if np.any(amounts < 0.0):
        raise ValueError("discharge amount must be non-negative")
    if category not in ("tx", "rx", "da"):
        raise ValueError(f"unknown energy category {category!r}")
    if idx.size == 0:
        return
    alive_before = int(np.count_nonzero(ledger._alive))
    delta = old_grouped_discharge(
        ledger._residual, ledger._alive, idx, amounts, ledger._death_line
    )
    if delta.size:
        ledger._charge_category(category, float(delta.sum()))
    ledger._record_deaths(
        "battery", alive_before - int(np.count_nonzero(ledger._alive))
    )


def old_ewma_fold_shared(row, targets, obs, alpha, pow_table):
    a = alpha
    order = np.argsort(targets, kind="stable")
    t = targets[order]
    obs = obs[order]
    uniq, counts = np.unique(t, return_counts=True)
    starts = np.cumsum(counts) - counts
    j = np.arange(t.size, dtype=np.int64) - np.repeat(starts, counts)
    decay_exp = np.repeat(counts, counts) - 1 - j
    contrib = a * obs * (1.0 - a) ** decay_exp
    group = np.repeat(np.arange(uniq.size), counts)
    weighted = np.bincount(group, weights=contrib, minlength=uniq.size)
    vals = row[uniq] * (1.0 - a) ** counts + weighted
    np.clip(vals, 0.0, 1.0, out=vals)
    row[uniq] = vals


def old_ewma_fold_pairs(est, nodes, targets, obs, alpha, pow_table):
    a = alpha
    key = nodes * est.shape[1] + targets
    uniq_k, pair_counts = np.unique(key, return_counts=True)
    if uniq_k.size == key.size:
        est[nodes, targets] += a * (obs - est[nodes, targets])
        return
    order = np.argsort(key, kind="stable")
    obs_s = obs[order]
    starts = np.cumsum(pair_counts) - pair_counts
    j = np.arange(key.size, dtype=np.int64) - np.repeat(starts, pair_counts)
    decay_exp = np.repeat(pair_counts, pair_counts) - 1 - j
    contrib = a * obs_s * (1.0 - a) ** decay_exp
    group = np.repeat(np.arange(uniq_k.size), pair_counts)
    weighted = np.bincount(group, weights=contrib, minlength=uniq_k.size)
    un = uniq_k // est.shape[1]
    ut = uniq_k % est.shape[1]
    vals = est[un, ut] * (1.0 - a) ** pair_counts + weighted
    np.clip(vals, 0.0, 1.0, out=vals)
    est[un, ut] = vals


def old_fuzzy_c_means(points, k, m=2.0, rng=None, max_iter=200, tol=1e-6):
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if points.ndim != 2 or n == 0:
        raise ValueError("points must be a non-empty (n, d) array")
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n_points")
    if m <= 1.0:
        raise ValueError("fuzzifier m must exceed 1")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

    u = gen.random((n, k)) + 1e-9
    u /= u.sum(axis=1, keepdims=True)

    exponent = 2.0 / (m - 1.0)
    objective = np.inf
    centroids = np.zeros((k, points.shape[1]))
    for it in range(1, max_iter + 1):
        um = u ** m
        centroids = (um.T @ points) / um.sum(axis=0)[:, None]
        d = pairwise_distances(points, centroids)
        d = np.maximum(d, 1e-12)
        u_new = d ** (-exponent)
        u_new /= u_new.sum(axis=1, keepdims=True)
        new_objective = float(((u_new ** m) * d ** 2).sum())
        shift = float(np.abs(u_new - u).max())
        u = u_new
        if shift < tol:
            return FCMResult(centroids, u, new_objective, it, True)
        objective = new_objective
    return FCMResult(centroids, u, objective, max_iter, False)


def old_delivery_probability(distance, d0, floor=0.05, sharpness=2.0):
    if d0 <= 0.0:
        raise ValueError("d0 must be positive")
    if not 0.0 <= floor < 1.0:
        raise ValueError("floor must lie in [0, 1)")
    d = np.asarray(distance, dtype=np.float64)
    if np.any(d < 0.0):
        raise ValueError("distance must be non-negative")
    knee = 2.0 * d0
    with np.errstate(divide="ignore"):
        x = np.where(d > 0.0, np.log(d / knee), -np.inf)
    p = floor + (1.0 - floor) / (1.0 + np.exp(sharpness * x * 4.0))
    if np.isscalar(distance) or getattr(distance, "ndim", 1) == 0:
        return float(p)
    return p


def old_amplifier_energy(bits, distance, radio):
    d = np.asarray(distance, dtype=np.float64)
    if np.any(d < 0.0):
        raise ValueError("distance must be non-negative")
    fs = radio.eps_fs * d * d
    mp = radio.eps_mp * d ** 4
    out = bits * np.where(d < radio.d0, fs, mp)
    if np.isscalar(distance) or getattr(distance, "ndim", 1) == 0:
        return float(out)
    return out


class OldHeadGrid:
    """``HeadGrid`` on ``(k, 3)`` coordinate rows."""

    def __init__(self, heads: np.ndarray, positions: np.ndarray) -> None:
        self.heads = heads.copy()
        self.positions = positions.copy()
        k = heads.size
        self.lo = positions.min(axis=0)
        span = positions.max(axis=0) - self.lo
        # About k cubic cells; an axis thinner than a cell gets one.
        spread = span > 0.0
        while spread.any():
            side = (np.prod(span[spread]) / k) ** (1.0 / spread.sum())
            thin = spread & (span < side)
            if not thin.any():
                break
            spread &= ~thin
        self.dims = np.ones(3, dtype=np.intp)
        if spread.any():
            self.dims[spread] = np.ceil(span[spread] / side)
        self.cell = np.where(spread, span / self.dims, 1.0)
        self.strides = np.array(
            [self.dims[1] * self.dims[2], self.dims[2], 1], dtype=np.intp
        )
        axes = [
            self.lo[a] + (np.arange(self.dims[a]) + 0.5) * self.cell[a]
            for a in range(3)
        ]
        self.centres = np.stack(
            np.meshgrid(*axes, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        self.depth = min(GRID_DEPTH, k)
        #: ``order[c]``: the columns of the heads nearest centre ``c``,
        #: nearest first; ``d[c]`` their distances to it.
        self.order = np.empty((self.centres.shape[0], self.depth), dtype=np.intp)
        d = np.empty(self.order.shape, dtype=np.float64)
        for a in range(0, self.centres.shape[0], GRID_CHUNK):
            b = a + GRID_CHUNK
            block = euclidean(self.centres[a:b, None, :], positions[None, :, :])
            near = np.argpartition(block, self.depth - 1, axis=1)[:, : self.depth]
            block = np.take_along_axis(block, near, axis=1)
            by_distance = np.argsort(block, axis=1)
            self.order[a:b] = np.take_along_axis(near, by_distance, axis=1)
            d[a:b] = np.take_along_axis(block, by_distance, axis=1)
        #: Every cell's list back to back, then all heads in column order.
        self.lists = np.concatenate([self.order.ravel(), np.arange(k)])
        self.everyone = self.order.size
        # One sorted key array for every cell: row c is offset by
        # c * stride, a power of two above twice the largest distance,
        # so the offsets are exact and rows never interleave.
        self.stride = 2.0 ** np.ceil(np.log2(2.0 * d.max() + 2.0))
        rows = np.arange(self.centres.shape[0])
        self.keys = (d + (rows * self.stride)[:, None]).ravel()

    def matches(self, heads: np.ndarray, positions: np.ndarray) -> bool:
        return np.array_equal(self.heads, heads) and np.array_equal(
            self.positions, positions
        )

    def locate(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cell of each point (clamped into the grid) and the point's
        distance to that cell's centre."""
        idx = np.floor((points - self.lo) / self.cell).astype(np.intp)
        np.clip(idx, 0, self.dims - 1, out=idx)
        cells = idx @ self.strides
        return cells, euclidean(points, self.centres[cells])

    def candidates(
        self, cells: np.ndarray, radius: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)``: for each query row, grouped by row, a
        superset of the head columns within ``radius[row]`` of the
        centre of ``cells[row]``."""
        count = np.searchsorted(
            self.keys,
            cells * self.stride + np.minimum(radius, 0.5 * self.stride),
            side="right",
        ) - cells * self.depth
        start = cells * self.depth
        if self.depth < self.heads.size:
            # The ball may reach past the end of the list: every head.
            full = count >= self.depth
            count[full] = self.heads.size
            start[full] = self.everyone
        rows = np.repeat(np.arange(cells.size), count)
        first = np.cumsum(count) - count
        at = np.arange(rows.size) + np.repeat(start - first, count)
        return rows, self.lists[at]


def old_pairs(self, nodes, targets):
    if self.shared:
        p = self._shared_row[targets]
    else:
        p = self._est[nodes, targets]
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValueError("success probabilities must lie in [0, 1]")
    return p


def old_score(self, nodes, targets, d, x_src, v_self, is_bs=False) -> np.ndarray:
    """Exact q of (sender, target) pairs at distances ``d``, laid
    out in any broadcast shape: the block's ``y`` and Q combine.
    ``is_bs`` masks the last axis as in :func:`expected_q_tree`."""
    st = self.state
    c = self.rewards.cfg
    # The BS is mains-powered: its x(.) is pinned to 0, as in the block.
    e_dst = st.ledger.residual[np.where(is_bs, 0, targets)]
    return expected_q_tree(
        old_pairs(st.link_estimator, nodes, targets),
        self.rewards.y(d),
        x_src,
        self.rewards.x(np.where(is_bs, 0.0, e_dst)),
        is_bs,
        self.v.get_many(targets),
        v_self,
        g=c.g, alpha1=c.alpha1, alpha2=c.alpha2, beta1=c.beta1,
        beta2=c.beta2, bs_penalty=c.bs_penalty, gamma=self.cfg.gamma,
    )


def old_choose_pruned(
    self,
    nodes: np.ndarray,
    heads: np.ndarray,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray] | None:
    st = self.state
    c = self.rewards.cfg
    lo_w, hi_w = min(c.alpha2, c.beta2), max(c.alpha2, c.beta2)
    denom = lo_w - BOUND_SLACK * hi_w
    if denom <= 0.0:
        return None
    head_pos = st.nodes.positions[heads]
    grid = OldHeadGrid(heads, head_pos)
    n, k = nodes.size, heads.size
    gamma = self.cfg.gamma
    src = st.nodes.positions[nodes]
    x_src = self.rewards.x(st.ledger.residual[nodes])
    v_self = self.v.get_many(nodes)
    # Two exact columns per sender: the head nearest its cell's
    # centre, and the BS.
    cells, d_cell = grid.locate(src)
    near = grid.order[cells, 0]
    pair = np.empty((n, 2), dtype=np.intp)
    pair[:, 0] = heads[near]
    pair[:, 1] = st.bs_index
    d = np.empty((n, 2), dtype=np.float64)
    d[:, 0] = euclidean(src, head_pos[near])
    d[:, 1] = st.topology.d_to_bs[nodes]
    q2 = old_score(
        self,
        nodes[:, None], pair, d, x_src[:, None], v_self[:, None],
        np.array([False, True]),
    )
    q_bs = q2[:, 1]
    floor = q2.max(axis=1)  # L_i <= row max
    # The bound B_i, and its slack: BOUND_SLACK times the size of
    # every term a q of this row or the bound adds up.
    x_heads = self.rewards.x(st.ledger.residual[heads])
    v_heads = self.v.get_many(heads)
    own = c.alpha1 * (x_src + x_heads.max())
    fail = c.beta1 * x_src
    v_term = gamma * np.maximum(v_heads.max(), v_self)
    slack = BOUND_SLACK * (
        abs(c.g) + own + fail + np.abs(floor)
        + gamma * (np.abs(v_heads).max() + np.abs(v_self))
    )
    cost = (np.maximum(own, fail) - c.g + v_term - floor + slack) / denom
    radius = self.rewards.max_distance(cost) * RADIUS_MARGIN
    if not np.isfinite(radius).all():
        return None
    # Candidates: heads the index cannot place beyond the radius,
    # then those whose exact distance is within it.
    rows, cols = grid.candidates(cells, (radius + d_cell) * RADIUS_MARGIN)
    d = euclidean(src[rows], head_pos[cols])
    keep = d <= radius[rows]
    rows, cols, d = rows[keep], cols[keep], d[keep]
    q = old_score(self, nodes[rows], heads[cols], d, x_src[rows], v_self[rows])
    # Row max, first maximiser and tie count over the candidates
    # and the BS column (column k, after every head).
    v_new = q_bs.copy()
    picks = np.full(n, k, dtype=np.intp)
    ties = np.zeros(n, dtype=np.intp)
    if rows.size:
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        owner = rows[starts]
        v_new[owner] = np.maximum(v_new[owner], np.maximum.reduceat(q, starts))
        hit = q == v_new[rows]
        picks[owner] = np.minimum.reduceat(np.where(hit, cols, k), starts)
        ties[owner] = np.add.reduceat(hit, starts)
    bs_ties = q_bs == v_new
    ties += bs_ties
    if rng is not None:
        for i in np.flatnonzero(ties > 1):
            mine = rows == i
            tied = np.sort(cols[mine][q[mine] == v_new[i]])
            if bs_ties[i]:
                tied = np.append(tied, k)
            picks[i] = rng.choice(tied)
    self.q_evaluations += n * (k + 1)
    return self.action_targets(heads)[picks], v_new


def old_distances_many(self, nodes, targets):
    nodes = np.asarray(nodes, dtype=np.intp)
    targets = np.asarray(targets, dtype=np.intp)
    out = np.empty(nodes.size, dtype=np.float64)
    is_bs = targets == self.bs_index
    if is_bs.any():
        out[is_bs] = self.topology.d_to_bs[nodes[is_bs]]
    real = ~is_bs
    if real.any():
        out[real] = self.kernels.distance_pairs(
            self.nodes.positions[nodes[real]],
            self.nodes.positions[targets[real]],
        )
    return out


def old_arrivals(self, active):
    active = np.asarray(active, dtype=bool)
    if active.shape != (self.n,):
        raise ValueError("active mask must have shape (n_nodes,)")
    counts = np.zeros(self.n, dtype=np.int64)
    idx = np.flatnonzero(active)
    if idx.size:
        counts[idx] = self.rng.poisson(self.config.rate_per_slot, size=idx.size)
        self.total_generated += int(counts[idx].sum())
    return counts


# ----------------------------------------------------------------------
# Case generators
# ----------------------------------------------------------------------
def _indices(rng, layout, n_nodes, size):
    if layout == "single":
        return rng.integers(0, n_nodes, 1)
    if layout in ("dup", "sorted-dup"):
        idx = rng.integers(0, max(1, min(4, n_nodes)), size)
        return np.sort(idx) if layout == "sorted-dup" else idx
    size = min(size, n_nodes)
    if layout == "unsorted":
        return rng.permutation(n_nodes)[:size]
    return np.sort(rng.choice(n_nodes, size, replace=False))


def _discharge_case(seed, layout, n_nodes, size):
    """Residuals near and far above a 0.01 J death line, ~20% dead
    nodes, charges large enough to cross it, ~20% zero charges."""
    rng = np.random.default_rng(seed)
    residual = rng.uniform(0.0, 0.3, n_nodes)
    residual[rng.random(n_nodes) < 0.2] = 0.0100001
    alive = rng.random(n_nodes) > 0.2
    idx = _indices(rng, layout, n_nodes, size).astype(np.intp)
    amounts = rng.uniform(0.0, 0.08, idx.size)
    amounts[rng.random(idx.size) < 0.2] = 0.0
    return residual, alive, idx, amounts


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


# ----------------------------------------------------------------------
# Energy
# ----------------------------------------------------------------------
class TestGroupedDischargeOracle:
    @given(seed=SEEDS, layout=LAYOUTS, n_nodes=st.integers(1, 16),
           size=st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    def test_bitwise(self, seed, layout, n_nodes, size):
        residual, alive, idx, amounts = _discharge_case(
            seed, layout, n_nodes, size
        )
        r_old, a_old = residual.copy(), alive.copy()
        r_new, a_new = residual.copy(), alive.copy()
        d_old = old_grouped_discharge(r_old, a_old, idx, amounts, 0.01)
        d_new = BK.grouped_discharge(r_new, a_new, idx, amounts, 0.01)
        assert d_new.dtype == np.float64
        assert _bits(d_new) == _bits(d_old)
        assert _bits(d_new.sum()) == _bits(d_old.sum())
        assert _bits(r_new) == _bits(r_old)
        np.testing.assert_array_equal(a_new, a_old)
        assert np.count_nonzero(a_new) == np.count_nonzero(a_old)

    def test_all_dead_draws_nothing(self):
        residual = np.array([0.5, 0.5])
        alive = np.zeros(2, dtype=bool)
        delta = BK.grouped_discharge(
            residual, alive, np.array([1, 0, 1]), np.full(3, 0.1), 0.0
        )
        assert delta.dtype == np.float64 and delta.size == 0
        assert (residual == 0.5).all()


class TestDischargeManyOracle:
    def _ledgers(self, seed, n_nodes):
        rng = np.random.default_rng(seed)
        initial = rng.uniform(0.02, 0.3, n_nodes)
        return (EnergyLedger(initial, death_line=0.01),
                EnergyLedger(initial, death_line=0.01))

    @staticmethod
    def _state(ledger):
        return (
            _bits(ledger.residual), ledger.alive.tobytes(),
            _bits([ledger.spent_tx, ledger.spent_rx, ledger.spent_da]),
            ledger.deaths_by_cause(),
        )

    @given(seed=SEEDS, layout=LAYOUTS, n_nodes=st.integers(1, 16),
           size=st.integers(1, 40), scalar=st.booleans(),
           category=st.sampled_from(["tx", "rx", "da"]))
    @settings(max_examples=200, deadline=None)
    def test_bitwise_over_successive_charges(
        self, seed, layout, n_nodes, size, scalar, category
    ):
        old, new = self._ledgers(seed, n_nodes)
        rng = np.random.default_rng(seed + 1)
        # Several rounds of charges, so later calls meet dead nodes and
        # nodes already near the death line.
        for _ in range(4):
            idx = _indices(rng, layout, n_nodes, size)
            amounts = 0.03 if scalar else rng.uniform(0.0, 0.05, idx.size)
            old_discharge_many(old, idx, amounts, category)
            new.discharge_many(idx, amounts, category)
            assert self._state(new) == self._state(old)

    def test_mask_scalar_index_and_empty(self):
        old, new = self._ledgers(0, 6)
        mask = np.array([True, False, True, True, False, False])
        for args in ((mask, 0.05), (3, 0.04), (np.int64(2), [0.01]),
                     (np.empty(0, dtype=np.intp), 0.1)):
            old_discharge_many(old, *args)
            new.discharge_many(*args)
            assert self._state(new) == self._state(old)

    def test_validation_still_raises(self):
        _, new = self._ledgers(0, 4)
        with pytest.raises(ValueError, match="non-negative"):
            new.discharge_many([0, 1], [0.1, -0.1])
        with pytest.raises(ValueError, match="unknown energy category"):
            new.discharge_many([0], 0.1, "bogus")
        with pytest.raises(ValueError):
            new.discharge_many([0, 1, 2], [0.1, 0.2])  # shape mismatch


# ----------------------------------------------------------------------
# EWMA folds
# ----------------------------------------------------------------------
class TestEwmaFoldOracle:
    @staticmethod
    def _obs(rng, n, acks):
        """ACK outcomes (0/1), or fractional observations, which the
        kernels accept too and which expose the product order."""
        if acks:
            return rng.integers(0, 2, n).astype(np.float64)
        return rng.uniform(0.0, 1.0, n)

    @given(seed=SEEDS, layout=LAYOUTS, n_targets=st.integers(1, 12),
           size=st.integers(1, 50), acks=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_shared_bitwise(self, seed, layout, n_targets, size, acks):
        rng = np.random.default_rng(seed)
        alpha = float(rng.uniform(0.01, 1.0))
        row = rng.uniform(0.0, 1.0, n_targets)
        targets = _indices(rng, layout, n_targets, size).astype(np.intp)
        obs = self._obs(rng, targets.size, acks)
        table = np.power(1.0 - alpha, np.arange(targets.size + 1))
        r_old, r_new = row.copy(), row.copy()
        old_ewma_fold_shared(r_old, targets, obs, alpha, table)
        BK.ewma_fold_shared(r_new, targets, obs, alpha, table)
        assert _bits(r_new) == _bits(r_old)

    @given(seed=SEEDS, layout=LAYOUTS, n_nodes=st.integers(1, 8),
           n_targets=st.integers(1, 6), size=st.integers(1, 50),
           acks=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_pairs_bitwise(self, seed, layout, n_nodes, n_targets, size, acks):
        rng = np.random.default_rng(seed)
        alpha = float(rng.uniform(0.01, 1.0))
        est = rng.uniform(0.0, 1.0, (n_nodes, n_targets))
        # Lay the layout out over flat (node, target) cells, so "sorted"
        # means ascending senders and "dup" repeats pairs.
        cells = _indices(rng, layout, n_nodes * n_targets, size)
        nodes, targets = np.divmod(cells.astype(np.intp), n_targets)
        obs = self._obs(rng, nodes.size, acks)
        table = np.power(1.0 - alpha, np.arange(nodes.size + 1))
        e_old, e_new = est.copy(), est.copy()
        old_ewma_fold_pairs(e_old, nodes, targets, obs, alpha, table)
        BK.ewma_fold_pairs(e_new, nodes, targets, obs, alpha, table)
        assert _bits(e_new) == _bits(e_old)


# ----------------------------------------------------------------------
# Fuzzy C-means
# ----------------------------------------------------------------------
def _same_fcm(a: FCMResult, b: FCMResult) -> None:
    assert _bits(a.centroids) == _bits(b.centroids)
    assert _bits(a.membership) == _bits(b.membership)
    assert _bits(a.objective) == _bits(b.objective)
    assert a.iterations == b.iterations
    assert a.converged == b.converged


class TestFuzzyCMeansOracle:
    @given(seed=SEEDS, n=st.integers(1, 60), k=st.integers(1, 10),
           m=st.sampled_from([1.5, 2.0, 3.0]),
           max_iter=st.sampled_from([1, 2, 5, 200]))
    @settings(max_examples=100, deadline=None)
    def test_bitwise(self, seed, n, k, m, max_iter):
        k = min(k, n)
        pts = np.random.default_rng(seed).uniform(0.0, 200.0, (n, 3))
        _same_fcm(
            fuzzy_c_means(pts, k, m, rng=seed, max_iter=max_iter),
            old_fuzzy_c_means(pts, k, m, rng=seed, max_iter=max_iter),
        )

    def test_capped_run_that_does_not_converge(self):
        pts = np.random.default_rng(3).uniform(0.0, 100.0, (40, 3))
        new = fuzzy_c_means(pts, 5, rng=4, max_iter=3, tol=0.0)
        _same_fcm(new, old_fuzzy_c_means(pts, 5, rng=4, max_iter=3, tol=0.0))
        assert not new.converged and new.iterations == 3

    def test_paper_scale_converges_identically(self):
        pts = np.random.default_rng(5).uniform(0.0, 100.0, (100, 3))
        new = fuzzy_c_means(pts, 10, rng=6)
        _same_fcm(new, old_fuzzy_c_means(pts, 10, rng=6))
        assert new.converged

    def test_no_iteration(self):
        pts = np.random.default_rng(7).uniform(0.0, 10.0, (5, 3))
        _same_fcm(fuzzy_c_means(pts, 2, rng=1, max_iter=0),
                  old_fuzzy_c_means(pts, 2, rng=1, max_iter=0))

    def test_points_must_be_3d(self):
        with pytest.raises(ValueError):
            fuzzy_c_means(np.zeros((5, 2)), 2)


# ----------------------------------------------------------------------
# Pricing
# ----------------------------------------------------------------------
RADIO = RadioConfig()
D0 = RADIO.d0


class TestPricingOracle:
    @pytest.mark.parametrize(
        "d", [0.0, 0, np.float64(0.0), np.array(0.0), 5e-324, 1e-310]
    )
    def test_zero_distance_scalar(self, d):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = delivery_probability(d, D0)
            amp = amplifier_energy(4000, d, RADIO)
        assert isinstance(p, float) and p == 1.0
        assert p == old_delivery_probability(d, D0)
        assert amp == old_amplifier_energy(4000, d, RADIO)

    @pytest.mark.parametrize("shape", [(1,), (5,), (3, 2)])
    def test_zero_distance_array(self, shape):
        d = np.zeros(shape)
        d.flat[-1] = 5e-324  # d / knee underflows to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = delivery_probability(d, D0)
            amp = amplifier_energy(4000, d, RADIO)
        assert (p == 1.0).all()
        assert _bits(p) == _bits(old_delivery_probability(d, D0))
        assert _bits(amp) == _bits(old_amplifier_energy(4000, d, RADIO))

    @given(seed=SEEDS, n=st.integers(1, 70), zeros=st.floats(0.0, 1.0),
           floor=st.sampled_from([0.0, 0.05, 0.3]),
           sharpness=st.sampled_from([0.5, 2.0, 7.0]))
    @settings(max_examples=200, deadline=None)
    def test_bitwise(self, seed, n, zeros, floor, sharpness):
        rng = np.random.default_rng(seed)
        d = rng.uniform(0.0, 4.0 * D0, n)
        d[rng.random(n) < zeros] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = delivery_probability(d, D0, floor, sharpness)
            amp = amplifier_energy(4000, d, RADIO)
        assert _bits(p) == _bits(old_delivery_probability(d, D0, floor, sharpness))
        assert _bits(amp) == _bits(old_amplifier_energy(4000, d, RADIO))
        for x in d[:4].tolist():
            assert delivery_probability(x, D0, floor, sharpness) == (
                old_delivery_probability(x, D0, floor, sharpness)
            )
            assert amplifier_energy(4000, x, RADIO) == (
                old_amplifier_energy(4000, x, RADIO)
            )

    @pytest.mark.parametrize("d", [-1.0, np.array([3.0, -0.5, 0.0])])
    def test_negative_distance_still_raises(self, d):
        with pytest.raises(ValueError, match="non-negative"):
            delivery_probability(d, D0)
        with pytest.raises(ValueError, match="non-negative"):
            amplifier_energy(4000, d, RADIO)


class TestAmplifierAtCrossover:
    """``d ** 4`` is now raised only where ``d < d0`` fails; the branch
    taken at ``d == d0``, next to it, and at NaN is the oracle's."""

    EDGES = [0.0, D0, np.nextafter(D0, 0.0), np.nextafter(D0, np.inf),
             2.0 * D0, np.inf, np.nan]

    @pytest.mark.parametrize("wrap", [float, np.float64, np.array])
    @pytest.mark.parametrize("d", EDGES)
    def test_scalar(self, wrap, d):
        amp = amplifier_energy(4000, wrap(d), RADIO)
        assert isinstance(amp, float)
        assert _bits(amp) == _bits(old_amplifier_energy(4000, wrap(d), RADIO))

    @pytest.mark.parametrize("shape", [(7,), (7, 1), (1, 7)])
    def test_array(self, shape):
        d = np.array(self.EDGES).reshape(shape)
        amp = amplifier_energy(4000, d, RADIO)
        assert amp.shape == shape
        assert _bits(amp) == _bits(old_amplifier_energy(4000, d, RADIO))

    def test_all_free_space_and_all_multipath(self):
        for d in (np.linspace(0.0, 0.99 * D0, 9), np.linspace(D0, 9 * D0, 9)):
            assert _bits(amplifier_energy(4000, d, RADIO)) == _bits(
                old_amplifier_energy(4000, d, RADIO)
            )


# ----------------------------------------------------------------------
# Coordinate columns: distance, head index, relay choice, link lengths
# ----------------------------------------------------------------------
class TestColumnDistance:
    @given(seed=SEEDS, n=st.integers(1, 40), m=st.integers(1, 9),
           scale=st.sampled_from([1e-3, 1.0, 300.0, 1e7]))
    @settings(max_examples=200, deadline=None)
    def test_equals_euclidean_on_rows(self, seed, n, m, scale):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-scale, scale, (n, 3))
        b = rng.uniform(-scale, scale, (n, 3))
        b[::3] = a[::3]  # zero-length links
        assert _bits(euclidean_columns(a.T, b.T)) == _bits(euclidean(a, b))
        c = b[:m]
        assert _bits(
            euclidean_columns(a.T[:, :, None], c.T[:, None, :])
        ) == _bits(euclidean(a[:, None, :], c[None, :, :]))
        nodes = NodeArray(a, 1.0)
        idx = rng.integers(0, n, 2 * n)
        assert _bits(
            euclidean_columns(nodes.columns.take(idx, axis=1), c.T[:, :1])
        ) == _bits(euclidean(a[idx], c[:1]))

    def test_node_columns_are_a_read_only_copy_left_out_of_pickles(self):
        pos = np.random.default_rng(0).uniform(0.0, 100.0, (50, 3))
        nodes = NodeArray(pos, 0.5)
        before = pickle.dumps(nodes)
        cols = nodes.columns
        assert cols.shape == (3, 50) and cols.flags.c_contiguous
        assert not cols.flags.writeable
        assert _bits(cols) == _bits(np.ascontiguousarray(pos.T))
        assert nodes.columns is cols  # derived once
        assert pickle.dumps(nodes) == before
        restored = pickle.loads(before)
        assert restored._columns is None
        assert _bits(restored.columns) == _bits(cols)


@st.composite
def head_sets(draw):
    """Head sets on a coarse lattice (coincident and equidistant heads),
    with k below, at and above GRID_DEPTH, optionally flat along some
    axes, and query points reaching well outside the heads' box."""
    k = draw(st.sampled_from(
        [1, 2, 7, GRID_DEPTH - 1, GRID_DEPTH, GRID_DEPTH + 1, GRID_CHUNK + 20]
    ))
    seed = draw(SEEDS)
    rng = np.random.default_rng(seed)
    spacing = draw(st.sampled_from([0.002, 2.5, 45.0]))
    heads = rng.integers(0, 6, (k, 3)).astype(float)
    flat = draw(st.sampled_from([(), (0,), (2,), (0, 1), (0, 1, 2)]))
    heads[:, list(flat)] = 2.0
    points = rng.integers(-3, 9, (draw(st.integers(1, 40)), 3)).astype(float)
    on_heads = min(k, points.shape[0]) // 3
    points[:on_heads] = heads[:on_heads]  # senders on top of heads
    return heads * spacing, points * spacing, rng


class TestHeadGridOracle:
    @given(head_sets())
    @settings(max_examples=200, deadline=None)
    def test_index_locate_and_candidates(self, case):
        pos, points, rng = case
        heads = np.arange(pos.shape[0], dtype=np.intp)
        old = OldHeadGrid(heads, pos)
        new = HeadGrid(heads, np.ascontiguousarray(pos.T))
        for name in ("lo", "dims", "cell", "order", "lists", "keys"):
            assert _bits(getattr(new, name)) == _bits(getattr(old, name))
        assert new.stride == old.stride and new.everyone == old.everyone
        centres = np.stack(np.meshgrid(*new.axes, indexing="ij"), axis=-1)
        assert _bits(centres.reshape(-1, 3)) == _bits(old.centres)

        cells, d_cell = new.locate(np.ascontiguousarray(points.T))
        old_cells, old_d = old.locate(points)
        assert cells.tobytes() == old_cells.astype(np.intp).tobytes()
        assert _bits(d_cell) == _bits(old_d)

        radius = rng.choice([0.0, 1e-9, 0.5, 3.0, 1e3, 1e300], cells.size)
        radius = radius * rng.uniform(0.5, 1.5, cells.size)
        rows, cols = new.candidates(cells, radius)
        old_rows, old_cols = old.candidates(cells, radius)
        assert rows.tobytes() == old_rows.tobytes()
        assert cols.tobytes() == old_cols.tobytes()

    def test_matches_follows_columns(self):
        pos = np.random.default_rng(1).uniform(0.0, 50.0, (9, 3))
        heads = np.arange(9, dtype=np.intp)
        grid = HeadGrid(heads, np.ascontiguousarray(pos.T))
        assert grid.matches(heads, np.ascontiguousarray(pos.T))
        pos[4, 2] += 1.0
        assert not grid.matches(heads, np.ascontiguousarray(pos.T))


@st.composite
def relay_cases(draw):
    """``pruning_router`` networks with k below and above GRID_DEPTH,
    heads flat along an axis, senders outside the heads' box, BS picks
    (penalty-free BS) and exact ties (lattice points, coincident heads)."""
    k = draw(st.sampled_from([1, 5, GRID_DEPTH - 1, GRID_DEPTH + 1, 70]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    heads = rng.integers(0, 6, (k, 3))
    flat = draw(st.sampled_from([None, 0, 1, 2]))
    if flat is not None:
        heads[:, flat] = 3
    lo = draw(st.sampled_from([0, -4]))  # -4: senders outside the box
    senders = rng.integers(lo, 10 + lo, (draw(st.integers(1, 24)), 3))
    return {
        "heads": [tuple(map(int, p)) for p in heads],
        "senders": [tuple(map(int, p)) for p in senders],
        "coincide": draw(st.integers(0, 3)),
        "spacing": draw(st.sampled_from([0.002, 2.5, 20.0, 45.0])),
        "bs": draw(st.tuples(*[st.integers(-2, 7)] * 3)),
        "g": draw(st.sampled_from([0.1, 0.07])),
        "bs_penalty": draw(st.sampled_from([0.0, 0.3, 100.0])),
        "weights": draw(st.sampled_from([(1.05, 1.05), (0.4, 1.05), (2.0, 0.05)])),
        "shared": draw(st.booleans()),
        "p": draw(st.sampled_from(["one", "levels", "uniform"])),
        "residual": draw(st.sampled_from(["equal", "levels", "uniform"])),
        "v": draw(st.sampled_from(["zero", "levels", "normal"])),
        "dead": draw(st.integers(0, 3)),
        "learning_rate": None,
        "rng": draw(st.sampled_from([None, 11])),
        "seed": seed,
    }


class TestPrunedRelayChoiceOracle:
    @given(relay_cases())
    @settings(max_examples=300, deadline=None)
    def test_bitwise(self, case):
        _, new, senders, heads = pruning_router(case)
        if heads.size == 0:
            return
        _, old, _, _ = pruning_router(case)
        rng_new = None if case["rng"] is None else np.random.default_rng(11)
        rng_old = None if case["rng"] is None else np.random.default_rng(11)
        got = new._choose_pruned(senders, heads, rng_new)
        want = old_choose_pruned(old, senders, heads, rng_old)
        assert (got is None) == (want is None)
        if got is not None:
            assert got[0].tobytes() == want[0].tobytes()  # picks
            assert _bits(got[1]) == _bits(want[1])  # v_new
        assert new.q_evaluations == old.q_evaluations
        if rng_new is not None:
            assert rng_new.bit_generator.state == rng_old.bit_generator.state

    def test_ties_and_bs_picks_occur(self):
        """The strategy's reach, pinned on one case: a tie draws from
        the generator and a sender picks the BS."""
        case = {
            "heads": [(0, 0, 0), (4, 4, 4), (0, 4, 0), (4, 0, 4)],
            "senders": [(1, 0, 0), (0, 1, 0), (4, 4, 3), (2, 2, 2), (5, 5, 5)],
            "coincide": 2, "spacing": 45.0, "bs": (5, 5, 5),
            "g": 0.1, "bs_penalty": 0.0, "weights": (1.05, 1.05),
            "shared": True, "p": "one", "residual": "equal", "v": "zero",
            "dead": 0, "learning_rate": None, "rng": 11, "seed": 1,
        }
        state, new, senders, heads = pruning_router(case)
        _, old, _, _ = pruning_router(case)
        rng_new, rng_old = np.random.default_rng(11), np.random.default_rng(11)
        picks, v_new = new._choose_pruned(senders, heads, rng_new)
        want, v_want = old_choose_pruned(old, senders, heads, rng_old)
        assert picks.tobytes() == want.tobytes()
        assert _bits(v_new) == _bits(v_want)
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        assert rng_new.bit_generator.state != np.random.default_rng(11).bit_generator.state
        assert state.bs_index in picks


class TestDistancesManyOracle:
    @given(seed=SEEDS, n_nodes=st.integers(1, 30), size=st.integers(0, 60),
           bs_share=st.sampled_from([0.0, 0.3, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_bitwise(self, seed, n_nodes, size, bs_share):
        state = NetworkState(make_config(n_nodes=n_nodes, seed=seed % 1000))
        rng = np.random.default_rng(seed)
        nodes = rng.integers(0, n_nodes, size)
        targets = rng.integers(0, n_nodes, size)
        targets[rng.random(size) < bs_share] = state.bs_index
        targets[::5] = nodes[::5]  # a node to itself
        got = state.distances_many(nodes, targets)
        assert got.dtype == np.float64 and got.shape == (size,)
        assert _bits(got) == _bits(old_distances_many(state, nodes, targets))


class TestArrivalsOracle:
    @staticmethod
    def _pair(n, lam, seed):
        cfg = TrafficConfig(mean_interarrival=lam)
        return (PoissonTraffic(cfg, n, np.random.default_rng(seed)),
                PoissonTraffic(cfg, n, np.random.default_rng(seed)))

    @given(seed=SEEDS, n=st.integers(1, 300),
           lam=st.sampled_from([0.5, 1.0, 4.0, 64.0]),
           density=st.sampled_from([0.0, "one", 0.1, 0.9, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_bitwise_over_successive_slots(self, seed, n, lam, density):
        new, old = self._pair(n, lam, seed)
        rng = np.random.default_rng(seed + 1)
        for _ in range(4):
            if density == "one":
                active = np.zeros(n, dtype=bool)
                active[rng.integers(n)] = True
            else:
                active = rng.random(n) < density
            sources, counts = new.arrivals(active)
            dense = old_arrivals(old, active)
            want = np.flatnonzero(dense)
            assert sources.dtype == np.int64 and counts.dtype == np.int64
            assert sources.tobytes() == want.tobytes()
            assert counts.tobytes() == dense[want].tobytes()
            assert new.total_generated == old.total_generated
            assert new.rng.bit_generator.state == old.rng.bit_generator.state

    def test_all_inactive_draws_nothing(self):
        new, old = self._pair(20, 4.0, 3)
        sources, counts = new.arrivals(np.zeros(20, dtype=bool))
        assert sources.size == counts.size == 0
        assert old_arrivals(old, np.zeros(20, dtype=bool)).sum() == 0
        assert new.rng.bit_generator.state == old.rng.bit_generator.state
        assert new.total_generated == 0
