"""Bit-equivalence of every non-reference backend against numpy.

This is the enforcement arm of the equivalence policy in
``repro.kernels.base``: per-kernel randomized property tests
(hypothesis) plus engine-level golden-path runs, all asserting
**bitwise** equality — no tolerances.  The whole module skips with a
reason when numba is not installed; the CI numba leg runs it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import available_backends, get_backend

pytestmark = pytest.mark.skipif(
    "numba" not in available_backends(),
    reason="numba not installed — the equivalence suite runs on the CI "
    "numba leg (pip install numba)",
)

SEEDS = st.integers(min_value=0, max_value=10_000)


@pytest.fixture(scope="module")
def backends():
    return get_backend("numpy"), get_backend("numba")


class TestKernelEquivalence:
    @given(seed=SEEDS, n=st.integers(1, 40), dup=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_grouped_discharge_bitwise(self, backends, seed, n, dup):
        ref, jit = backends
        rng = np.random.default_rng(seed)
        n_nodes = 12
        residual = rng.uniform(0.0, 0.3, n_nodes)
        alive = rng.uniform(0, 1, n_nodes) > 0.2
        hi = 4 if dup else n_nodes  # force duplicate folding sometimes
        idx = rng.integers(0, hi, n)
        amounts = rng.uniform(0.0, 0.08, n)
        death_line = 0.01

        r1, a1 = residual.copy(), alive.copy()
        r2, a2 = residual.copy(), alive.copy()
        d1 = ref.grouped_discharge(r1, a1, idx, amounts, death_line)
        d2 = jit.grouped_discharge(r2, a2, idx, amounts, death_line)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(a1, a2)

    @given(seed=SEEDS, n=st.integers(1, 50))
    @settings(max_examples=50, deadline=None)
    def test_ewma_fold_shared_bitwise(self, backends, seed, n):
        ref, jit = backends
        rng = np.random.default_rng(seed)
        alpha = float(rng.uniform(0.05, 1.0))
        row = rng.uniform(0, 1, 9)
        targets = rng.integers(0, 9, n)
        obs = rng.integers(0, 2, n).astype(np.float64)
        table = np.power(1.0 - alpha, np.arange(n + 1))

        r1, r2 = row.copy(), row.copy()
        ref.ewma_fold_shared(r1, targets, obs, alpha, table)
        jit.ewma_fold_shared(r2, targets, obs, alpha, table)
        np.testing.assert_array_equal(r1, r2)

    @given(seed=SEEDS, n=st.integers(1, 50), dup=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_ewma_fold_pairs_bitwise(self, backends, seed, n, dup):
        ref, jit = backends
        rng = np.random.default_rng(seed)
        alpha = float(rng.uniform(0.05, 1.0))
        est = rng.uniform(0, 1, (7, 8))
        hi = 3 if dup else 7  # exercise both the fast path and the fold
        nodes = rng.integers(0, hi, n)
        targets = rng.integers(0, 8 if not dup else 2, n)
        obs = rng.integers(0, 2, n).astype(np.float64)
        table = np.power(1.0 - alpha, np.arange(n + 1))

        e1, e2 = est.copy(), est.copy()
        ref.ewma_fold_pairs(e1, nodes, targets, obs, alpha, table)
        jit.ewma_fold_pairs(e2, nodes, targets, obs, alpha, table)
        np.testing.assert_array_equal(e1, e2)

    @given(seed=SEEDS, n=st.integers(1, 30), m=st.integers(1, 12))
    @settings(max_examples=50, deadline=None)
    def test_expected_q_bitwise(self, backends, seed, n, m):
        ref, jit = backends
        rng = np.random.default_rng(seed)
        p = rng.uniform(0, 1, (n, m))
        y = rng.uniform(0, 5, (n, m))
        x_src = rng.uniform(0, 1, n)
        x_dst = rng.uniform(0, 1, m)
        is_bs = rng.uniform(0, 1, m) > 0.7
        v_t = rng.normal(0, 1, m)
        v_s = rng.normal(0, 1, n)
        params = dict(
            g=float(rng.uniform(0, 0.5)),
            alpha1=float(rng.uniform(0, 1)),
            alpha2=float(rng.uniform(0, 1)),
            beta1=float(rng.uniform(0, 1)),
            beta2=float(rng.uniform(0, 1)),
            bs_penalty=float(rng.uniform(0, 1)),
            gamma=float(rng.uniform(0.5, 1.0)),
        )
        q1, v1 = ref.expected_q(p, y, x_src, x_dst, is_bs, v_t, v_s, **params)
        q2, v2 = jit.expected_q(p, y, x_src, x_dst, is_bs, v_t, v_s, **params)
        np.testing.assert_array_equal(q1, q2)
        np.testing.assert_array_equal(v1, v2)

    def test_reference_pinned_methods_are_shared_code(self, backends):
        """Distances and the Bernoulli compare must be the *same numpy
        code*, not a reimplementation (equivalence policy rule 2)."""
        ref, jit = backends
        assert type(jit).distance_block is type(ref).distance_block
        assert type(jit).distance_pairs is type(ref).distance_pairs
        assert type(jit).bernoulli is type(ref).bernoulli


class TestEngineEquivalence:
    @pytest.mark.parametrize("protocol", ["qlec", "direct", "leach"])
    def test_full_run_bitwise_identical(self, protocol):
        """Five Table-2 rounds on each backend: every per-round metric
        (including float energy totals) must match exactly."""
        from repro.analysis import PROTOCOLS
        from repro.config import paper_config
        from repro.simulation.engine import SimulationEngine

        def rounds(backend):
            cfg = paper_config(seed=0, rounds=5)
            result = SimulationEngine(
                cfg, PROTOCOLS[protocol](), backend=backend
            ).run()
            return [rs.row() for rs in result.per_round]

        assert rounds("numpy") == rounds("numba")

    def test_estimator_shared_mode_bitwise_identical(self):
        from repro.analysis import PROTOCOLS
        from repro.config import paper_config
        from repro.simulation.engine import SimulationEngine

        def final_state(backend):
            cfg = paper_config(seed=1, rounds=3)
            cfg = cfg.replace(estimator_shared=True)
            engine = SimulationEngine(
                cfg, PROTOCOLS["qlec"](), backend=backend
            )
            engine.run()
            return (
                engine.state.ledger.residual.copy(),
                np.asarray(engine.state.link_estimator.estimates).copy(),
            )

        res1, est1 = final_state("numpy")
        res2, est2 = final_state("numba")
        np.testing.assert_array_equal(res1, res2)
        np.testing.assert_array_equal(est1, est2)
