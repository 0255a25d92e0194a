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
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.fcm import FCMResult, fuzzy_c_means
from repro.config import RadioConfig
from repro.energy.battery import EnergyLedger
from repro.energy.radio import amplifier_energy
from repro.kernels import NumpyBackend
from repro.network.channel import delivery_probability
from repro.network.topology import pairwise_distances

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
