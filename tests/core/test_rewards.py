"""Tests for the QLEC reward model (Eqs. 16-20), checked against the
formulas expanded by hand."""

import numpy as np
import pytest

from repro.config import QLearningConfig, RadioConfig
from repro.core.rewards import RewardModel
from repro.energy.radio import FirstOrderRadio

BITS = 4000


def make_model(**qkwargs):
    q = QLearningConfig(energy_scale=1.0, cost_scale=1.0, **qkwargs)
    return RewardModel(q, FirstOrderRadio(RadioConfig()), BITS)


class TestNormalisation:
    def test_x_divides_by_energy_scale(self):
        q = QLearningConfig(energy_scale=2.0)
        m = RewardModel(q, FirstOrderRadio(), BITS)
        assert m.x(1.0) == pytest.approx(0.5)

    def test_auto_energy_scale_from_network(self):
        q = QLearningConfig()  # energy_scale None -> use constructor arg
        m = RewardModel(q, FirstOrderRadio(), BITS, energy_scale=4.0)
        assert m.x(2.0) == pytest.approx(0.5)

    def test_y_is_amp_over_cost_ref(self):
        q = QLearningConfig(cost_scale=1.0)
        radio = FirstOrderRadio()
        m = RewardModel(q, radio, BITS)
        assert m.y(50.0) == pytest.approx(radio.amp(BITS, 50.0))

    def test_default_cost_scale_normalises_knee(self):
        q = QLearningConfig()  # cost_scale None -> amp at 1.5 d0
        radio = FirstOrderRadio()
        m = RewardModel(q, radio, BITS)
        assert m.y(1.5 * radio.d0) == pytest.approx(1.0)

    def test_bits_override(self):
        m = make_model()
        assert m.y(100.0, bits=BITS / 2) == pytest.approx(m.y(100.0) / 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            RewardModel(QLearningConfig(), FirstOrderRadio(), 0)
        with pytest.raises(ValueError):
            RewardModel(QLearningConfig(energy_scale=-1.0), FirstOrderRadio(), BITS)


class TestEq17SuccessReward:
    def test_hand_expanded(self):
        m = make_model(g=0.2, alpha1=0.5, alpha2=2.0)
        d = 30.0
        y = float(m.y(d))
        expected = -0.2 + 0.5 * (1.0 + 2.0) - 2.0 * y
        assert m.success_reward(1.0, 2.0, d) == pytest.approx(expected)

    def test_eq19_bs_penalty(self):
        m = make_model(bs_penalty=50.0)
        d = 30.0
        base = float(m.success_reward(1.0, 0.0, d))
        with_bs = float(
            m.success_reward(1.0, 0.0, d, is_bs=np.array([True]))[0]
        )
        assert with_bs == pytest.approx(base - 50.0)

    def test_vectorized_over_targets(self):
        m = make_model()
        r = m.success_reward(1.0, np.array([1.0, 2.0]), np.array([10.0, 20.0]))
        assert r.shape == (2,)
        assert r[0] != r[1]

    def test_prefers_high_energy_heads(self):
        m = make_model()
        r = m.success_reward(1.0, np.array([0.5, 2.0]), np.array([30.0, 30.0]))
        assert r[1] > r[0]

    def test_prefers_near_heads(self):
        m = make_model()
        r = m.success_reward(1.0, np.array([1.0, 1.0]), np.array([10.0, 150.0]))
        assert r[0] > r[1]


class TestEq20FailureReward:
    def test_hand_expanded(self):
        m = make_model(g=0.2, beta1=0.3, beta2=1.5)
        d = 40.0
        expected = -0.2 + 0.3 * 1.0 - 1.5 * float(m.y(d))
        assert m.failure_reward(1.0, d) == pytest.approx(expected)

    def test_failure_below_success_for_default_weights(self):
        """Losing the packet must never beat delivering it (given a
        live destination with any energy)."""
        m = make_model()
        d = 60.0
        assert float(m.failure_reward(1.0, d)) < float(
            m.success_reward(1.0, 1.0, d)
        )


class TestEq16ExpectedReward:
    def test_is_convex_combination(self):
        m = make_model()
        d, e_src, e_dst = 50.0, 1.0, 2.0
        r_s = float(m.success_reward(e_src, e_dst, d))
        r_f = float(m.failure_reward(e_src, d))
        for p in (0.0, 0.3, 1.0):
            expected = p * r_s + (1 - p) * r_f
            assert m.expected_reward(p, e_src, e_dst, d) == pytest.approx(expected)

    def test_monotone_in_p(self):
        m = make_model()
        r_lo = float(m.expected_reward(0.2, 1.0, 1.0, 50.0))
        r_hi = float(m.expected_reward(0.9, 1.0, 1.0, 50.0))
        assert r_hi > r_lo

    def test_rejects_invalid_probability(self):
        m = make_model()
        with pytest.raises(ValueError):
            m.expected_reward(1.5, 1.0, 1.0, 50.0)


class TestMaxDistance:
    """``max_distance`` inverts ``y`` across the d^2 / d^4 crossover."""

    @staticmethod
    def models():
        yield RewardModel(QLearningConfig(), FirstOrderRadio(RadioConfig()), BITS)
        yield make_model()
        # A radio with a shorter crossover.
        yield RewardModel(
            QLearningConfig(),
            FirstOrderRadio(RadioConfig(eps_mp=0.0026e-12)),
            BITS,
        )

    @pytest.mark.parametrize("scale", [1e-9, 0.3, 0.97, 1.0, 1.03, 3.0, 1e6])
    def test_inverts_y(self, scale):
        """Both branches and the crossover: y(max_distance(t)) >= t up
        to rounding, and the root sits on the branch t falls on."""
        for m in self.models():
            d0 = m.radio.d0
            t = float(m.y(d0)) * scale
            d = float(m.max_distance(t))
            assert float(m.y(d)) >= t * (1 - 4e-16)
            assert (d >= d0) == (scale >= 1.0)

    def test_at_d0(self):
        for m in self.models():
            d0 = m.radio.d0
            assert float(m.max_distance(m.y(d0))) == pytest.approx(d0, rel=1e-15)

    def test_beyond_the_radius_costs_more(self):
        for m in self.models():
            t = np.geomspace(1e-12, 1e6, 200)
            d = m.max_distance(t)
            assert np.all(m.y(d * (1 + 1e-12)) > t)
            assert m.max_distance(0.0) == 0.0
            assert m.max_distance(-1.0) == 0.0

    def test_compressed_bits(self):
        m = RewardModel(QLearningConfig(), FirstOrderRadio(RadioConfig()), BITS)
        t = 0.5
        assert float(m.y(m.max_distance(t, bits=400), bits=400)) == pytest.approx(t)
