"""Routing substrate wired through the engine: null-cost default,
scalar==batched under active substrates, path tracing, hop-aware
accounting, and telemetry counters."""

import dataclasses
import json

import numpy as np

from repro.config import RoutingConfig, paper_config
from repro.core import QLECProtocol
from repro.simulation import TraceRecorder
from repro.simulation.engine import SimulationEngine, run_simulation
from repro.telemetry import Telemetry
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
        trace = TraceRecorder()
        SimulationEngine(
            routed_config("direct"), QLECProtocol(),
            telemetry=tel, trace=trace,
        ).run()
        assert trace.paths == []
        assert not any(k.startswith("routing/") for k in tel.snapshot())

    def test_direct_matches_default_config_bitwise(self):
        """An explicit routing=direct config is the same scenario as a
        config that never mentions routing."""
        base = make_config(seed=1, rounds=4)
        explicit = dataclasses.replace(base, routing=RoutingConfig())
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
        trace = TraceRecorder()
        result = SimulationEngine(
            routed_config(kind, seed=seed, rounds=rounds),
            QLECProtocol(), trace=trace,
        ).run()
        return result, trace

    def test_path_records_present_and_consistent(self):
        result, trace = self.run_traced("tree")
        assert trace.paths, "active substrate emitted no path records"
        n_rounds = len(trace.records)
        for rec in trace.paths:
            assert rec["kind"] == "path"
            assert 0 <= rec["round"] < n_rounds
            assert rec["hops"] == len(rec["path"]) + 1
            assert 0 <= rec["delivered"] <= rec["frames"]
            assert rec["head"] not in rec["path"]

    def test_jsonl_round_trip(self):
        _, trace = self.run_traced("qspt")
        text = trace.to_jsonl()
        back = TraceRecorder.parse_jsonl(text)
        assert len(back.records) == len(trace.records)
        assert back.paths == trace.paths
        # Path records are valid JSON objects on their own lines.
        kinds = [json.loads(l).get("kind") for l in text.splitlines()]
        assert kinds.count("path") == len(trace.paths)

    def test_delivered_path_hops_sum_matches_packet_stats(self):
        """Every delivered frame's hop count flows into the packet
        accounting: sum(hops * delivered) over path records equals the
        run's total uplink hops beyond the member->CH hop."""
        result, trace = self.run_traced("tree", seed=4)
        from_paths = sum(r["hops"] * r["delivered"] for r in trace.paths)
        # total_hops counts member->CH (1) + uplink hops per delivered
        # CH-relayed packet; direct-to-BS members contribute 1 total.
        assert from_paths <= result.packets.total_hops
        assert from_paths > 0


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


class TestUplinkFeedback:
    """The chain walk batches each (head, hop) but still fires the
    feedback hooks once per frame, after the hop's state is applied."""

    def test_on_hop_fires_once_per_frame(self, monkeypatch):
        from repro.routing.base import TreeRouting

        calls = []
        monkeypatch.setattr(
            TreeRouting, "on_hop",
            lambda self, state, src, dst, ok: calls.append(
                (src, dst, ok, state.bs_index)
            ),
        )
        trace = TraceRecorder()
        SimulationEngine(
            routed_config("tree", seed=4, rounds=6), QLECProtocol(),
            trace=trace,
        ).run()
        # Every delivered frame's last hop is an ACKed hop into the BS,
        # and every such hop delivers its frame.
        into_bs = sum(ok and dst == bs for _, dst, ok, bs in calls)
        assert into_bs == sum(r["delivered"] for r in trace.paths) > 0
        assert len(calls) >= sum(r["frames"] for r in trace.paths)

    def test_protocol_hook_only_observes(self):
        seen = []

        class HookedQLEC(QLECProtocol):
            def on_transmission(self, state, node, target, success):
                seen.append(success)

        # An active substrate takes the chain walk with or without the
        # hook (a hooked protocol alone would leave the direct path).
        cfg = routed_config("tree", seed=1, rounds=4)
        plain = run_simulation(cfg, QLECProtocol())
        hooked = run_simulation(cfg, HookedQLEC())
        assert hooked.summary() == plain.summary()
        assert np.array_equal(hooked.residual_final, plain.residual_final)
        assert seen
