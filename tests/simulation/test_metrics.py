"""Tests for RoundStats / SimulationResult metrics."""

import numpy as np
import pytest

from repro.network.packet import PacketStats
from repro.simulation.metrics import RoundStats, SimulationResult


def _packets():
    return PacketStats(generated=10, delivered=8, dropped_channel=2)


def make_result(**overrides):
    packets = overrides.pop("packets", _packets())
    per_round = overrides.pop(
        "per_round", [RoundStats(0, 3, 10, 0.5, _packets())]
    )
    defaults = dict(
        protocol="test",
        rounds_executed=1,
        rounds_planned=1,
        per_round=per_round,
        packets=packets,
        total_energy=0.5,
        first_death_round=None,
        n_alive_final=10,
        consumption_ratio=np.array([0.1, 0.2, 0.3]),
        residual_final=np.array([0.9, 0.8, 0.7]),
        positions=np.zeros((3, 3)),
    )
    defaults.update(overrides)
    return SimulationResult(**defaults)


class TestDerivedMetrics:
    def test_delivery_rate(self):
        assert make_result().delivery_rate == pytest.approx(0.8)

    def test_lifespan_censored(self):
        r = make_result(first_death_round=None, rounds_executed=20)
        assert r.lifespan == 20
        assert r.lifespan_censored

    def test_lifespan_observed(self):
        r = make_result(first_death_round=7)
        assert r.lifespan == 7
        assert not r.lifespan_censored

    def test_balance_index_uniform_is_one(self):
        r = make_result(consumption_ratio=np.full(5, 0.2))
        assert r.energy_balance_index() == pytest.approx(1.0)

    def test_balance_index_hotspot_is_low(self):
        c = np.zeros(10)
        c[0] = 1.0
        r = make_result(consumption_ratio=c)
        assert r.energy_balance_index() == pytest.approx(0.1)

    def test_summary_keys(self):
        s = make_result().summary()
        for key in ("protocol", "pdr", "energy_J", "lifespan", "balance_index"):
            assert key in s


class TestValidate:
    def test_clean_result_passes(self):
        make_result().validate()

    def test_rejects_inconsistent_round_energy(self):
        r = make_result(total_energy=99.0)
        with pytest.raises(AssertionError):
            r.validate()

    def test_rejects_bad_consumption_ratio(self):
        r = make_result(consumption_ratio=np.array([1.5]))
        with pytest.raises(AssertionError):
            r.validate()

    def test_rejects_packet_overflow(self):
        bad = PacketStats(generated=1, delivered=5)
        r = make_result(
            packets=bad,
            per_round=[RoundStats(0, 1, 10, 0.5, bad)],
        )
        with pytest.raises(AssertionError):
            r.validate()

    def test_rejects_packets_left_in_flight(self):
        # A finished run has expired its backlog, so every generated
        # packet was delivered or dropped.
        short = PacketStats(generated=10, delivered=8)
        r = make_result(
            packets=short, per_round=[RoundStats(0, 3, 10, 0.5, short)]
        )
        with pytest.raises(AssertionError, match="10 generated"):
            r.validate()
