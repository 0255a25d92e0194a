"""Tests for energy harvesting and battery recharge."""

import numpy as np
import pytest

from repro.core import QLECProtocol
from repro.energy.battery import EnergyLedger
from repro.energy.harvesting import (
    ConstantHarvester,
    HarvestingConfig,
    SolarHarvester,
    build_harvester,
)
from repro.simulation.engine import run_simulation
from tests.conftest import make_config


class TestRecharge:
    def test_credits_energy(self):
        led = EnergyLedger(np.full(3, 1.0))
        led.discharge(0, 0.5, "tx")
        banked = led.recharge(0.2)
        assert led.residual[0] == pytest.approx(0.7)
        assert banked == pytest.approx(0.2)  # others were full

    def test_caps_at_capacity(self):
        led = EnergyLedger(np.full(2, 1.0))
        assert led.recharge(5.0) == 0.0
        np.testing.assert_allclose(led.residual, 1.0)

    def test_revives_nodes(self):
        led = EnergyLedger(np.full(2, 1.0), death_line=0.3)
        led.discharge(0, 0.8, "tx")
        assert not led.is_alive(0)
        led.recharge(0.5, revive=True)
        assert led.is_alive(0)

    def test_no_revive_option(self):
        led = EnergyLedger(np.full(2, 1.0), death_line=0.3)
        led.discharge(0, 0.8, "tx")
        led.recharge(0.5, revive=False)
        assert not led.is_alive(0)

    def test_rejects_negative(self):
        led = EnergyLedger(np.full(2, 1.0))
        with pytest.raises(ValueError):
            led.recharge(-0.1)

    def test_gross_vs_net_accounting(self):
        led = EnergyLedger(np.full(1, 1.0))
        led.discharge(0, 0.4, "tx")
        led.recharge(0.4)
        assert led.total_spent == pytest.approx(0.4)   # gross
        assert led.total_residual == pytest.approx(1.0)  # net


class TestHarvesters:
    def test_constant_income(self):
        h = ConstantHarvester(np.random.default_rng(0), 0.01)
        np.testing.assert_allclose(h.income(4, 0), 0.01)

    def test_solar_zero_at_night(self):
        h = SolarHarvester(np.random.default_rng(1), 0.01, rounds_per_day=10)
        # Second half of the period is night (sin < 0 clipped).
        assert h.income(5, 7).sum() == 0.0

    def test_solar_positive_at_noon(self):
        h = SolarHarvester(np.random.default_rng(2), 0.01, rounds_per_day=12)
        assert h.income(5, 3).sum() > 0.0

    def test_solar_long_run_mean_matches(self):
        rng = np.random.default_rng(3)
        h = SolarHarvester(rng, 0.01, rounds_per_day=10)
        incomes = [h.income(100, r).mean() for r in range(2000)]
        assert float(np.mean(incomes)) == pytest.approx(0.01, rel=0.15)

    def test_apply_credits_ledger(self):
        led = EnergyLedger(np.full(3, 1.0))
        led.discharge(np.arange(3), 0.5, "tx")
        h = ConstantHarvester(np.random.default_rng(4), 0.1)
        banked = h.apply(led, 0)
        assert banked == pytest.approx(0.3)

    def test_build_dispatch(self):
        rng = np.random.default_rng(5)
        assert isinstance(
            build_harvester(HarvestingConfig(model="constant"), rng),
            ConstantHarvester,
        )
        assert isinstance(
            build_harvester(HarvestingConfig(model="solar"), rng), SolarHarvester
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HarvestingConfig(model="fusion")
        with pytest.raises(ValueError):
            HarvestingConfig(mean_income=-1.0)
        with pytest.raises(ValueError):
            HarvestingConfig(rounds_per_day=0)


class TestEngineIntegration:
    def test_harvesting_extends_survival(self):
        base = make_config(
            seed=5, initial_energy=0.02, rounds=15, mean_interarrival=2.0
        )
        plain = run_simulation(base, QLECProtocol())
        harvested = run_simulation(
            base.replace(
                harvesting=HarvestingConfig(model="constant", mean_income=0.005)
            ),
            QLECProtocol(),
        )
        assert harvested.n_alive_final >= plain.n_alive_final

    def test_harvested_run_keeps_invariants(self):
        config = make_config(seed=6).replace(
            harvesting=HarvestingConfig(model="solar", mean_income=0.002)
        )
        result = run_simulation(config, QLECProtocol())
        result.validate()

    def test_gross_energy_still_positive_with_harvesting(self):
        config = make_config(seed=7).replace(
            harvesting=HarvestingConfig(model="constant", mean_income=0.05)
        )
        result = run_simulation(config, QLECProtocol())
        assert result.total_energy > 0.0
