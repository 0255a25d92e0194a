"""Routing substrate wired through the engine: null-cost default,
scalar==batched under active substrates, ``routing/path`` instants in
the run trace, hop-aware accounting, and telemetry counters."""

import dataclasses

import numpy as np

from repro.config import RoutingConfig, paper_config
from repro.core import QLECProtocol
from repro.simulation.engine import SimulationEngine, run_simulation
from repro.telemetry import SpanTracer, Telemetry, read_trace_jsonl
from tests.conftest import make_config


def routed_config(kind, seed=0, rounds=5, **routing_kwargs):
    return make_config(
        seed=seed, rounds=rounds,
        routing=RoutingConfig(kind=kind, **routing_kwargs),
    )


class TestNullSubstrate:
    def test_direct_router_is_inert(self):
        engine = SimulationEngine(routed_config("direct"), QLECProtocol())
        assert engine.router.active is False
        mark = engine.state.routing_rng.bit_generator.state
        result = engine.run()
        assert engine.state.routing_rng.bit_generator.state == mark
        assert "routing" not in result.extras

    def test_direct_emits_no_paths_or_metrics(self):
        tel = Telemetry()
        tracer = SpanTracer()
        SimulationEngine(
            routed_config("direct"), QLECProtocol(),
            telemetry=tel, tracer=tracer,
        ).run()
        assert tracer.dropped == 0
        assert not any(ev["name"] == "routing/path" for ev in tracer.events)
        assert not any(k.startswith("routing/") for k in tel.snapshot())

    def test_direct_matches_default_config_bitwise(self):
        """An explicit routing=direct config is the same scenario as a
        config that never mentions routing."""
        base = make_config(seed=1, rounds=4)
        explicit = dataclasses.replace(base, routing=RoutingConfig())
        # So the golden traces, which never mention routing, pin the
        # direct router for every protocol.
        assert dataclasses.replace(
            paper_config(seed=0), routing=RoutingConfig(kind="direct")
        ) == paper_config(seed=0)
        a = run_simulation(base, QLECProtocol())
        b = run_simulation(explicit, QLECProtocol())
        assert a.summary() == b.summary()
        assert np.array_equal(a.residual_final, b.residual_final)


class TestActiveSubstrates:
    def test_discovery_bills_energy(self):
        """An active substrate pays for its control plane: same
        scenario, strictly more energy than the direct run."""
        direct = run_simulation(routed_config("direct"), QLECProtocol())
        tree = run_simulation(routed_config("tree"), QLECProtocol())
        assert tree.total_energy > direct.total_energy
        assert tree.extras["routing"]["broadcasts"] > 0

    def test_scalar_batched_equivalence(self):
        for kind in ("tree", "qspt"):
            cfg = routed_config(kind, seed=2, rounds=5)
            batched = run_simulation(cfg, QLECProtocol(), batched=True)
            scalar = run_simulation(cfg, QLECProtocol(), batched=False)
            assert batched.summary() == scalar.summary(), kind
            assert batched.extras["routing"] == scalar.extras["routing"], kind

    def test_runs_are_reproducible(self):
        for kind in ("tree", "qspt"):
            cfg = routed_config(kind, seed=3, rounds=5)
            a = run_simulation(cfg, QLECProtocol())
            b = run_simulation(cfg, QLECProtocol())
            assert a.summary() == b.summary(), kind
            assert a.extras["routing"] == b.extras["routing"], kind

    def test_multi_hop_latency_and_hops_accounted(self):
        """With a short radio (multi-hop trees), delivered packets pick
        up extra hops and slots relative to the direct uplink."""
        cfg_direct = paper_config(seed=0, rounds=5)
        cfg_tree = dataclasses.replace(
            cfg_direct, routing=RoutingConfig(kind="tree", range_factor=1.2)
        )
        direct = run_simulation(cfg_direct, QLECProtocol())
        tree = run_simulation(cfg_tree, QLECProtocol())
        d_hops = direct.packets.total_hops / direct.packets.delivered
        t_hops = tree.packets.total_hops / tree.packets.delivered
        assert t_hops > d_hops
        assert tree.mean_latency > direct.mean_latency


class TestPathTracing:
    def run_traced(self, kind, seed=0, rounds=4):
        tracer = SpanTracer()
        result = SimulationEngine(
            routed_config(kind, seed=seed, rounds=rounds),
            QLECProtocol(), tracer=tracer,
        ).run()
        assert tracer.dropped == 0
        return result, tracer

    @staticmethod
    def paths(tracer):
        return [ev for ev in tracer.events if ev["name"] == "routing/path"]

    def test_path_records_present_and_consistent(self):
        for kind in ("tree", "qspt"):
            result, tracer = self.run_traced(kind)
            assert result.extras["routing"]["kind"] == kind
            paths = self.paths(tracer)
            assert paths, f"{kind}: active substrate emitted no path instants"
            rounds = {
                ev["id"]: ev["args"]["round"]
                for ev in tracer.events if ev["name"] == "round"
            }
            for ev in paths:
                rec = ev["args"]
                assert rounds[ev["parent"]] == rec["round"]
                assert 0 <= rec["round"] < result.rounds_executed
                assert rec["hops"] == len(rec["path"]) + 1
                assert 0 <= rec["delivered"] <= rec["frames"]
                assert rec["head"] not in rec["path"]

    def test_jsonl_round_trip(self, tmp_path):
        _, tracer = self.run_traced("qspt")
        path = tmp_path / "run.trace.jsonl"
        tracer.write_jsonl(path)
        loaded = read_trace_jsonl(path)
        back = [ev for ev in loaded["events"] if ev["name"] == "routing/path"]
        assert back == self.paths(tracer)
        assert loaded["summary"]["instants_by_name"]["routing/path"] == len(back)

    def test_delivered_path_hops_sum_matches_packet_stats(self):
        """Every delivered frame's hop count flows into the packet
        accounting: sum(hops * delivered) over path instants is at most
        the run's total hops, which also count the member->CH hop."""
        for kind in ("tree", "qspt"):
            result, tracer = self.run_traced(kind, seed=4)
            from_paths = sum(
                ev["args"]["hops"] * ev["args"]["delivered"]
                for ev in self.paths(tracer)
            )
            assert 0 < from_paths <= result.packets.total_hops, kind


class TestRoutingTelemetry:
    def test_counters_and_histogram(self):
        tel = Telemetry()
        SimulationEngine(
            routed_config("tree"), QLECProtocol(), telemetry=tel
        ).run()
        snap = tel.snapshot()
        for name in ("routing/repairs", "routing/fallbacks",
                     "routing/broadcasts"):
            assert name in snap, name
            assert snap[name]["kind"] == "counter"
        hops = snap["routing/hops"]
        assert hops["kind"] == "histogram"
        assert hops["count"] > 0

    def test_metrics_live_in_the_deterministic_view(self):
        from repro.telemetry.registry import deterministic_view

        tel = Telemetry()
        SimulationEngine(
            routed_config("tree"), QLECProtocol(), telemetry=tel
        ).run()
        det = deterministic_view(tel.snapshot())
        assert any(k.startswith("routing/") for k in det)

    def test_broadcast_counter_matches_summary(self):
        tel = Telemetry()
        engine = SimulationEngine(
            routed_config("qspt"), QLECProtocol(), telemetry=tel
        )
        result = engine.run()
        snap = tel.snapshot()
        assert (
            snap["routing/broadcasts"]["value"]
            == result.extras["routing"]["broadcasts"]
        )
