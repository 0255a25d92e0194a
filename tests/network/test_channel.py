"""Tests for the lossy channel and the ACK-ratio link estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RadioConfig
from repro.energy.radio import FirstOrderRadio
from repro.network.channel import Channel, LinkEstimator, delivery_probability

D0 = RadioConfig().d0


class TestDeliveryProbability:
    def test_certain_at_zero_distance(self):
        assert delivery_probability(0.0, D0) == pytest.approx(1.0)

    def test_half_at_knee(self):
        floor = 0.05
        p = delivery_probability(2 * D0, D0, floor=floor)
        assert p == pytest.approx(floor + (1 - floor) / 2)

    def test_approaches_floor_far_out(self):
        p = delivery_probability(100 * D0, D0, floor=0.05)
        assert p == pytest.approx(0.05, abs=1e-3)

    def test_vector_matches_scalar(self):
        ds = np.array([0.0, 50.0, 100.0, 500.0])
        vec = delivery_probability(ds, D0)
        scal = [delivery_probability(float(d), D0) for d in ds]
        np.testing.assert_allclose(vec, scal)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            delivery_probability(10.0, 0.0)
        with pytest.raises(ValueError):
            delivery_probability(10.0, D0, floor=1.0)
        with pytest.raises(ValueError):
            delivery_probability(-1.0, D0)

    @given(
        st.floats(min_value=0.0, max_value=5000.0),
        st.floats(min_value=0.0, max_value=5000.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_decreasing(self, d1, d2):
        lo, hi = sorted((d1, d2))
        assert delivery_probability(lo, D0) >= delivery_probability(hi, D0) - 1e-12

    @given(st.floats(min_value=0.0, max_value=1e5))
    @settings(max_examples=50, deadline=None)
    def test_is_a_probability(self, d):
        p = delivery_probability(d, D0)
        assert 0.0 <= p <= 1.0


class TestChannel:
    def make(self, seed=0, blackout=False):
        return Channel(
            FirstOrderRadio(), np.random.default_rng(seed), blackout=blackout
        )

    def test_short_links_almost_always_succeed(self):
        ch = self.make()
        outcomes = [ch.attempt(5.0) for _ in range(300)]
        assert np.mean(outcomes) > 0.95

    def test_empirical_rate_matches_probability(self):
        ch = self.make(seed=3)
        d = 2 * D0
        p = ch.success_probability(d)
        outcomes = ch.attempt_batch(np.full(20_000, d))
        assert outcomes.mean() == pytest.approx(p, abs=0.02)

    def test_blackout_fails_everything(self):
        ch = self.make(blackout=True)
        assert not ch.attempt(0.0)
        assert not ch.attempt_batch(np.zeros(10)).any()

    def test_attempt_batch_shape(self):
        ch = self.make()
        assert ch.attempt_batch(np.zeros((3, 2))).shape == (3, 2)


class TestLinkEstimator:
    def test_starts_optimistic(self):
        est = LinkEstimator(3, 4)
        assert est.get(0, 0) == 1.0

    def test_ewma_update(self):
        est = LinkEstimator(2, 2, alpha=0.5)
        est.update(0, 1, False)
        assert est.get(0, 1) == pytest.approx(0.5)
        est.update(0, 1, True)
        assert est.get(0, 1) == pytest.approx(0.75)

    def test_pair_mode_is_private(self):
        est = LinkEstimator(2, 2, alpha=0.5, shared=False)
        est.update(0, 1, False)
        assert est.get(1, 1) == 1.0

    def test_shared_mode_broadcasts(self):
        est = LinkEstimator(3, 2, alpha=0.5, shared=True)
        est.update(0, 1, False)
        assert est.get(1, 1) == pytest.approx(0.5)
        assert est.get(2, 1) == pytest.approx(0.5)
        # Other targets untouched.
        assert est.get(1, 0) == 1.0

    def test_converges_to_true_rate(self):
        rng = np.random.default_rng(0)
        est = LinkEstimator(1, 1, alpha=0.05)
        for _ in range(2000):
            est.update(0, 0, bool(rng.random() < 0.3))
        assert est.get(0, 0) == pytest.approx(0.3, abs=0.12)

    def test_row_view_read_only(self):
        est = LinkEstimator(2, 3)
        with pytest.raises(ValueError):
            est.row(0)[0] = 0.0
        with pytest.raises(ValueError):
            est.estimates[0, 0] = 0.0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LinkEstimator(0, 1)
        with pytest.raises(ValueError):
            LinkEstimator(1, 1, alpha=0.0)
        with pytest.raises(ValueError):
            LinkEstimator(1, 1, initial=1.5)
