"""Injector behaviour against the live engine: each fault kind does
what its name says, the accounting ledger balances, the fault stream is
isolated from every other RNG stream, and everything is reproducible."""

import numpy as np
import pytest

from repro.config import paper_config
from repro.core import QLECProtocol
from repro.faults import (
    FaultEvent,
    FaultPlan,
    build_fault_plan,
    fault_scenario_names,
    rounds_to_recover,
)
from repro.simulation.engine import SimulationEngine, run_simulation
from tests.conftest import make_config


def _run(plan, *, seed=0, rounds=6, protocol=None, **cfg):
    config = make_config(seed=seed, rounds=rounds, faults=plan, **cfg)
    return run_simulation(config, protocol or QLECProtocol())


class TestEventSemantics:
    def test_crash_kills_named_nodes(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="crash", round=1, nodes=(3, 5, 9)),)
        )
        result = _run(plan)
        result.validate()
        f = result.faults
        assert f["deaths_by_cause"]["crash"] == 3
        assert f["fatal"] == 1 and f["absorbed"] == 0

    def test_crash_by_count_draws_that_many(self):
        plan = FaultPlan(events=(FaultEvent(kind="crash", round=1, count=4),))
        result = _run(plan)
        assert result.faults["deaths_by_cause"]["crash"] == 4

    def test_revive_restores_population(self):
        victims = (0, 1, 2, 3)
        plan = FaultPlan(
            events=(
                FaultEvent(kind="crash", round=1, nodes=victims),
                FaultEvent(kind="revive", round=2, nodes=victims),
            )
        )
        result = _run(plan, initial_energy=1.0)
        result.validate()
        assert result.faults["revived"] == len(victims)
        assert result.n_alive_final == result.consumption_ratio.size

    def test_drain_books_no_radio_spend(self):
        """A battery anomaly leaks joules without transmitting them:
        total (radio) energy must match the fault-free run's shape —
        specifically, consumption_ratio tracks radio spend only and
        the run's energy books stay consistent."""
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind="battery_drain", round=1, nodes=(0, 1), factor=0.9
                ),
            )
        )
        result = _run(plan)
        result.validate()
        assert result.faults["events_by_kind"]["battery_drain"] == 1

    def test_drain_across_death_line_is_fatal(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind="battery_drain", round=1, count=3, factor=1.0
                ),
            )
        )
        result = _run(plan)
        result.validate()
        assert result.faults["fatal"] == 1
        assert result.faults["deaths_by_cause"].get("drain", 0) >= 3

    def test_blackout_window_opens_and_closes(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="blackout", round=2, duration=2),)
        )
        engine = SimulationEngine(
            make_config(seed=3, rounds=6, faults=plan), QLECProtocol()
        )
        delivered = []
        for _ in range(6):
            before = engine._totals.delivered
            engine.run_round()
            delivered.append(engine._totals.delivered - before)
        assert delivered[2] == 0 and delivered[3] == 0
        assert delivered[1] > 0 and delivered[4] > 0  # closes on schedule

    def test_degrade_lowers_channel_deliveries(self):
        base = _run(FaultPlan())
        plan = FaultPlan(
            events=(
                FaultEvent(kind="degrade", round=0, duration=6, factor=0.3),
            )
        )
        worse = _run(plan)
        assert worse.packets.dropped_channel > base.packets.dropped_channel

    def test_link_degrade_only_touches_victims(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind="link_degrade", round=0, nodes=(0,), duration=1,
                    factor=0.5,
                ),
            )
        )
        engine = SimulationEngine(
            make_config(seed=4, rounds=3, faults=plan), QLECProtocol()
        )
        engine.run_round()
        nf = engine.state.channel.node_factor
        assert nf is not None
        assert nf[0] == 0.5
        assert (nf[1:] == 1.0).all()
        engine.run_round()  # window expired
        assert engine.state.channel.node_factor[0] == 1.0

    def test_queue_clamp_window(self):
        plan = FaultPlan(
            events=(
                FaultEvent(kind="queue_clamp", round=0, duration=6, capacity=0),
            )
        )
        result = _run(plan, mean_interarrival=2.0)
        result.validate()
        # Zero-capacity heads bounce everything head-bound.
        assert result.packets.dropped_queue > 0

    def test_ch_kill_at_election_removes_heads(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="ch_kill", round=1, count=2),)
        )
        result = _run(plan)
        result.validate()
        assert result.faults["deaths_by_cause"]["ch_kill"] == 2
        # The round still ran with the surviving heads (no crash).
        assert result.rounds_executed == 6


class TestDeterminism:
    PLAN = FaultPlan(
        events=(
            FaultEvent(kind="crash", round=1, count=3),
            FaultEvent(kind="ch_kill", round=2, slot=3, count=1),
            FaultEvent(kind="degrade", round=3, duration=2, factor=0.6),
        )
    )

    def test_same_plan_same_seed_bit_identical(self):
        a = _run(self.PLAN, seed=5)
        b = _run(self.PLAN, seed=5)
        assert a.summary() == b.summary()
        assert a.faults == b.faults
        np.testing.assert_array_equal(a.residual_final, b.residual_final)

    @pytest.mark.parametrize("plan", ["hand-made", *fault_scenario_names()])
    def test_scalar_equals_batched(self, plan):
        """The hand-made plan, and every catalog scenario on the paper
        config (QLEC, 12 rounds, seed 0)."""
        if plan == "hand-made":
            config = make_config(seed=5, rounds=6, faults=self.PLAN)
        else:
            config = paper_config(seed=0, rounds=12)
            config = config.replace(faults=build_fault_plan(plan, config))
        a = run_simulation(config, QLECProtocol(), batched=True)
        b = run_simulation(config, QLECProtocol(), batched=False)
        assert a.summary() == b.summary()
        assert a.faults == b.faults
        np.testing.assert_array_equal(a.residual_final, b.residual_final)

    def test_fault_stream_isolated_from_simulation_streams(self):
        """Before any fault fires, a planned run with neutral recovery
        knobs (unbounded budget, zero backoff = the stock ARQ schedule)
        is bit-identical per round to the no-fault run: fault draws
        consume only the dedicated stream."""
        plan = FaultPlan(
            events=(FaultEvent(kind="crash", round=4, count=5),),
            retry_budget=10**9,
            backoff_base=0,
        )
        base = run_simulation(
            make_config(seed=6, rounds=4, initial_energy=1.0),
            QLECProtocol(),
        )
        chaotic = run_simulation(
            make_config(seed=6, rounds=4, initial_energy=1.0, faults=plan),
            QLECProtocol(),
        )
        for a, b in zip(base.per_round, chaotic.per_round):
            assert a.packets.delivered == b.packets.delivered
            assert a.energy_consumed == b.energy_consumed

    def test_empty_plan_validates(self):
        result = _run(FaultPlan())
        result.validate()
        assert result.faults["injected"] == 0
        assert result.faults["fault_rounds"] == []


class TestTelemetry:
    def test_fault_counters_recorded(self):
        from repro.telemetry import Telemetry

        plan = FaultPlan(
            events=(
                FaultEvent(kind="crash", round=1, count=2),
                FaultEvent(kind="blackout", round=2, duration=1),
            )
        )
        tel = Telemetry()
        config = make_config(seed=7, rounds=5, faults=plan)
        run_simulation(config, QLECProtocol(), telemetry=tel)
        snap = tel.snapshot()
        assert snap["faults/injected"]["value"] == 2
        assert snap["faults/fatal"]["value"] == 1
        assert snap["faults/absorbed"]["value"] == 1
        assert snap["deaths/crash"]["value"] == 2


class TestRecoveryMetrics:
    def test_rounds_to_recover_validates_inputs(self):
        result = _run(FaultPlan())
        with pytest.raises(ValueError):
            rounds_to_recover(result, fault_round=0)  # empty baseline
        with pytest.raises(ValueError):
            rounds_to_recover(result, fault_round=99)
