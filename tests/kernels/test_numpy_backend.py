"""Unit tests of the numpy reference kernels against inline oracles.

The reference backend *defines* correct behaviour for every other
backend, so these tests pin it against independent formulations:
sequential scalar loops for the grouped kernels, direct numpy
composition for the Q combine, and the ufunc identity behind the
precomputed decay table.
"""

import numpy as np

from repro.kernels import NumpyBackend

BK = NumpyBackend()
RNG = np.random.default_rng(1234)


class TestGeometry:
    def test_distance_block_matches_norm(self):
        src = RNG.uniform(0, 200, (7, 3))
        dst = RNG.uniform(0, 200, (5, 3))
        got = BK.distance_block(src, dst)
        want = np.linalg.norm(src[:, None, :] - dst[None, :, :], axis=2)
        assert got.shape == (7, 5)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_distance_pairs_matches_norm(self):
        src = RNG.uniform(0, 200, (9, 3))
        dst = RNG.uniform(0, 200, (9, 3))
        got = BK.distance_pairs(src, dst)
        np.testing.assert_allclose(
            got, np.linalg.norm(src - dst, axis=1), rtol=1e-12
        )

    def test_distance_block_row_equals_pairs(self):
        """The block and pair kernels are both ``euclidean``, so a
        one-row block equals the pairwise call bitwise."""
        src = RNG.uniform(0, 200, (1, 3))
        dst = RNG.uniform(0, 200, (6, 3))
        block = BK.distance_block(src, dst)[0]
        pairs = BK.distance_pairs(np.broadcast_to(src, (6, 3)).copy(), dst)
        np.testing.assert_array_equal(block, pairs)


class TestBernoulli:
    def test_strict_compare(self):
        p = np.array([0.0, 0.5, 0.5, 1.0])
        u = np.array([0.0, 0.4999, 0.5, 0.999])
        np.testing.assert_array_equal(
            BK.bernoulli(p, u), np.array([False, True, False, True])
        )


class TestGroupedDischarge:
    def _sequential(self, residual, alive, idx, amounts, death_line):
        """Scalar oracle: fold duplicates in input order, then charge."""
        sums: dict[int, float] = {}
        for i, a in zip(idx, amounts):
            sums[int(i)] = sums.get(int(i), 0.0) + float(a)
        deltas = []
        for node in sorted(sums):
            if not alive[node]:
                continue
            before = residual[node]
            after = max(before - sums[node], 0.0)
            residual[node] = after
            deltas.append(before - after)
            if after <= death_line:
                alive[node] = False
        return np.array(deltas, dtype=np.float64)

    def test_matches_sequential_oracle(self):
        residual = RNG.uniform(0.01, 0.3, 20)
        alive = np.ones(20, dtype=bool)
        alive[[3, 7]] = False
        idx = RNG.integers(0, 20, 60)
        amounts = RNG.uniform(0.0, 0.05, 60)

        r_ref, a_ref = residual.copy(), alive.copy()
        want = self._sequential(r_ref, a_ref, idx, amounts, 0.0)

        r_got, a_got = residual.copy(), alive.copy()
        got = BK.grouped_discharge(r_got, a_got, idx, amounts, 0.0)

        np.testing.assert_allclose(got, want, rtol=1e-12)
        np.testing.assert_allclose(r_got, r_ref, rtol=1e-12)
        np.testing.assert_array_equal(a_got, a_ref)

    def test_dead_nodes_not_charged(self):
        residual = np.array([0.5, 0.5])
        alive = np.array([True, False])
        delta = BK.grouped_discharge(
            residual, alive, np.array([0, 1]), np.array([0.1, 0.1]), 0.0
        )
        assert delta.size == 1
        assert residual[1] == 0.5

    def test_floor_at_zero_and_death_marking(self):
        residual = np.array([0.05, 0.2])
        alive = np.array([True, True])
        delta = BK.grouped_discharge(
            residual, alive, np.array([0, 1]), np.array([0.1, 0.1]), 0.05
        )
        # Node 0 floors at 0 and only 0.05 J was actually drawn.
        np.testing.assert_allclose(delta, [0.05, 0.1])
        assert residual[0] == 0.0
        assert not alive[0]  # 0.0 <= death_line: newly dead
        assert alive[1]  # 0.2 - 0.1 = 0.1 > 0.05: survives


class TestEwmaFolds:
    def _table(self, alpha, size):
        return np.power(1.0 - alpha, np.arange(size))

    def _sequential_shared(self, row, targets, obs, alpha):
        for t, o in zip(targets, obs):
            row[t] += alpha * (o - row[t])

    def test_pow_table_identity(self):
        """The precomputed table is bitwise the ufunc power on integer
        exponents — the identity that lets compiled backends read the
        table instead of calling pow."""
        for alpha in (0.05, 0.2, 0.77):
            table = self._table(alpha, 64)
            np.testing.assert_array_equal(
                table, (1.0 - alpha) ** np.arange(64)
            )

    def test_shared_fold_matches_sequential(self):
        alpha = 0.2
        row_ref = RNG.uniform(0, 1, 8)
        row_got = row_ref.copy()
        targets = np.array([2, 5, 2, 2, 7, 5], dtype=np.intp)
        obs = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 1.0])
        self._sequential_shared(row_ref, targets, obs, alpha)
        BK.ewma_fold_shared(
            row_got, targets, obs, alpha, self._table(alpha, targets.size + 1)
        )
        np.testing.assert_allclose(row_got, row_ref, rtol=1e-12)
        assert ((row_got >= 0.0) & (row_got <= 1.0)).all()

    def test_pairs_unique_fast_path_is_single_step(self):
        alpha = 0.3
        est = RNG.uniform(0, 1, (4, 5))
        nodes = np.array([0, 1, 3], dtype=np.intp)
        targets = np.array([4, 0, 2], dtype=np.intp)
        obs = np.array([1.0, 0.0, 1.0])
        want = est.copy()
        want[nodes, targets] += alpha * (obs - want[nodes, targets])
        BK.ewma_fold_pairs(
            est, nodes, targets, obs, alpha, self._table(alpha, 4)
        )
        np.testing.assert_array_equal(est, want)

    def test_pairs_fold_matches_sequential(self):
        alpha = 0.25
        est_ref = RNG.uniform(0, 1, (3, 4))
        est_got = est_ref.copy()
        nodes = np.array([0, 0, 2, 0], dtype=np.intp)
        targets = np.array([1, 1, 3, 1], dtype=np.intp)
        obs = np.array([1.0, 0.0, 1.0, 1.0])
        for n, t, o in zip(nodes, targets, obs):
            est_ref[n, t] += alpha * (o - est_ref[n, t])
        BK.ewma_fold_pairs(
            est_got, nodes, targets, obs, alpha,
            self._table(alpha, nodes.size + 1),
        )
        np.testing.assert_allclose(est_got, est_ref, rtol=1e-12)


class TestExpectedQ:
    def test_matches_inline_composition(self):
        n, m = 6, 4
        p = RNG.uniform(0, 1, (n, m))
        y = RNG.uniform(0, 3, (n, m))
        x_src = RNG.uniform(0, 1, n)
        x_dst = RNG.uniform(0, 1, m)
        is_bs = np.zeros(m, dtype=bool)
        is_bs[-1] = True
        v_t = RNG.normal(0, 1, m)
        v_s = RNG.normal(0, 1, n)
        params = dict(
            g=0.1, alpha1=0.6, alpha2=0.4, beta1=0.5, beta2=0.5,
            bs_penalty=0.3, gamma=0.9,
        )
        q, v_new = BK.expected_q(p, y, x_src, x_dst, is_bs, v_t, v_s, **params)

        r_s = (
            -params["g"]
            + params["alpha1"] * (x_src[:, None] + x_dst)
            - params["alpha2"] * y
        ) - np.where(is_bs, params["bs_penalty"], 0.0)
        r_f = -params["g"] + params["beta1"] * x_src[:, None] - params["beta2"] * y
        r_t = p * r_s + (1.0 - p) * r_f
        want = r_t + params["gamma"] * (p * v_t + (1.0 - p) * v_s[:, None])
        np.testing.assert_array_equal(q, want)
        np.testing.assert_array_equal(v_new, want.max(axis=1))

    def test_v_new_is_row_max(self):
        n, m = 3, 5
        q, v_new = BK.expected_q(
            RNG.uniform(0, 1, (n, m)), RNG.uniform(0, 2, (n, m)),
            RNG.uniform(0, 1, n), RNG.uniform(0, 1, m),
            np.zeros(m, dtype=bool), RNG.normal(0, 1, m), RNG.normal(0, 1, n),
            g=0.1, alpha1=0.6, alpha2=0.4, beta1=0.5, beta2=0.5,
            bs_penalty=0.3, gamma=0.95,
        )
        np.testing.assert_array_equal(v_new, q.max(axis=1))
