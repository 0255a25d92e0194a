"""Tests for the Poisson traffic generator."""

import numpy as np
import pytest

from repro.config import TrafficConfig
from repro.simulation.traffic import PoissonTraffic


def make_traffic(lam=4.0, n=50, seed=0):
    return PoissonTraffic(
        TrafficConfig(mean_interarrival=lam), n, np.random.default_rng(seed)
    )


def dense(traffic, active):
    """One slot's arrivals as an ``(N,)`` count vector."""
    sources, counts = traffic.arrivals(active)
    out = np.zeros(traffic.n, dtype=np.int64)
    out[sources] = counts
    return out


class TestArrivals:
    def test_respects_active_mask(self):
        traffic = make_traffic()
        active = np.zeros(50, dtype=bool)
        active[:10] = True
        counts = dense(traffic, active)
        assert counts[10:].sum() == 0

    def test_mean_rate_matches_lambda(self):
        traffic = make_traffic(lam=4.0, n=200, seed=1)
        active = np.ones(200, dtype=bool)
        total = sum(int(dense(traffic, active).sum()) for _ in range(200))
        # E[total] = 200 nodes * 200 slots * 0.25 = 10_000.
        assert total == pytest.approx(10_000, rel=0.05)

    def test_smaller_lambda_more_packets(self):
        congested = make_traffic(lam=2.0, n=100, seed=2)
        idle = make_traffic(lam=16.0, n=100, seed=2)
        active = np.ones(100, dtype=bool)
        c = sum(int(dense(congested, active).sum()) for _ in range(50))
        i = sum(int(dense(idle, active).sum()) for _ in range(50))
        assert c > 4 * i

    def test_total_generated_counter(self):
        traffic = make_traffic(lam=1.0, n=20, seed=3)
        active = np.ones(20, dtype=bool)
        s = int(dense(traffic, active).sum())
        assert traffic.total_generated == s

    def test_all_inactive_is_silent(self):
        traffic = make_traffic()
        counts = dense(traffic, np.zeros(50, dtype=bool))
        assert counts.sum() == 0

    def test_shape_mismatch_rejected(self):
        traffic = make_traffic()
        with pytest.raises(ValueError):
            traffic.arrivals(np.ones(10, dtype=bool))

    def test_deterministic_given_stream(self):
        a = make_traffic(seed=7)
        b = make_traffic(seed=7)
        active = np.ones(50, dtype=bool)
        np.testing.assert_array_equal(dense(a, active), dense(b, active))


class TestExpectedLoad:
    def test_expected_per_round(self):
        traffic = make_traffic(lam=4.0)
        # 10 slots default, rate 0.25 -> 2.5 packets per node per round.
        assert traffic.expected_per_round(10) == pytest.approx(25.0)

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            PoissonTraffic(TrafficConfig(), 0, np.random.default_rng(0))
