"""FaultPlan / FaultEvent: validation, serialisation, identity."""

import json

import pytest

from repro.config import DeploymentConfig, paper_config
from repro.faults import (
    EVENT_KINDS,
    FAULT_SCENARIOS,
    FaultEvent,
    FaultPlan,
    build_fault_plan,
    fault_scenario_names,
)
from repro.telemetry.manifest import config_fingerprint


class TestEventValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(kind="meteor", round=0)

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError, match="round"):
            FaultEvent(kind="blackout", round=-1)

    def test_nodes_and_count_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            FaultEvent(kind="crash", round=0, nodes=(1, 2), count=3)

    def test_node_kinds_need_victims(self):
        for kind in ("crash", "revive", "ch_kill", "battery_drain"):
            with pytest.raises(ValueError, match="nodes or count"):
                FaultEvent(kind=kind, round=0)

    def test_empty_nodes_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            FaultEvent(kind="crash", round=0, nodes=())

    def test_negative_node_index_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            FaultEvent(kind="crash", round=0, nodes=(-1,))

    def test_slot_only_for_ch_kill(self):
        with pytest.raises(ValueError, match="ch_kill"):
            FaultEvent(kind="crash", round=0, nodes=(1,), slot=2)
        FaultEvent(kind="ch_kill", round=0, count=1, slot=2)  # fine

    def test_window_kinds_need_duration(self):
        with pytest.raises(ValueError, match="duration"):
            FaultEvent(kind="blackout", round=0, duration=0)

    def test_factor_bounds(self):
        with pytest.raises(ValueError, match="factor"):
            FaultEvent(kind="degrade", round=0, factor=1.5)
        with pytest.raises(ValueError, match="factor"):
            FaultEvent(kind="battery_drain", round=0, count=1, factor=-0.1)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            FaultEvent(kind="queue_clamp", round=0, capacity=-1)


class TestPlanValidation:
    def test_events_must_be_events(self):
        with pytest.raises(TypeError):
            FaultPlan(events=("not-an-event",))

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="retry_budget"):
            FaultPlan(retry_budget=-1)
        with pytest.raises(ValueError, match="backoff_base"):
            FaultPlan(backoff_base=-1)

class TestSerialisation:
    PLAN = FaultPlan(
        events=(
            FaultEvent(kind="ch_kill", round=3, slot=2, count=2),
            FaultEvent(kind="link_degrade", round=1, nodes=(4, 7),
                       factor=0.3, duration=2),
            FaultEvent(kind="queue_clamp", round=5, duration=3, capacity=1),
        ),
        recovery=False,
        retry_budget=3,
        backoff_base=2,
    )

    def test_payload_round_trip(self):
        payload = json.loads(json.dumps(self.PLAN.to_payload()))
        assert FaultPlan.from_payload(payload) == self.PLAN

    def test_fingerprint_stable_and_sensitive(self):
        assert self.PLAN.fingerprint == FaultPlan.from_payload(
            self.PLAN.to_payload()
        ).fingerprint
        other = FaultPlan(events=self.PLAN.events, recovery=True,
                          retry_budget=3, backoff_base=2)
        assert other.fingerprint != self.PLAN.fingerprint

    def test_plan_changes_config_fingerprint(self):
        base = paper_config(seed=0)
        with_plan = base.replace(faults=self.PLAN)
        empty = base.replace(faults=FaultPlan())
        fps = {
            config_fingerprint(base),
            config_fingerprint(with_plan),
            config_fingerprint(empty),
        }
        assert len(fps) == 3  # None, empty plan, real plan all distinct


class TestCatalog:
    def test_names_sorted_and_complete(self):
        assert fault_scenario_names() == sorted(FAULT_SCENARIOS)

    @pytest.mark.parametrize("name", sorted(FAULT_SCENARIOS))
    def test_every_scenario_builds_within_horizon(self, name):
        config = paper_config(seed=0, rounds=16)
        plan = build_fault_plan(name, config)
        assert isinstance(plan, FaultPlan)
        assert plan.events
        for ev in plan.events:
            assert ev.kind in EVENT_KINDS
            assert ev.round + ev.duration <= config.rounds  # window ends

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown fault scenario"):
            build_fault_plan("nope", paper_config(seed=0))

    def test_scenarios_scale_with_population(self):
        small = build_fault_plan("churn", paper_config(seed=0))
        big_cfg = paper_config(seed=0).replace(
            deployment=DeploymentConfig(
                n_nodes=1000, side=200.0, initial_energy=0.25
            )
        )
        big = build_fault_plan("churn", big_cfg)

        def crashed(p):
            return sum(e.count for e in p.events if e.kind == "crash")

        assert crashed(big) > crashed(small)
