"""Tests for hierarchical span tracing (repro.telemetry.trace)."""

import dataclasses
import json

import pytest

from repro.core import QLECProtocol
from repro.faults import build_fault_plan
from repro.simulation import run_simulation
from repro.simulation.engine import SimulationEngine
from repro.telemetry import (
    SpanTracer,
    Telemetry,
    merge_trace_summaries,
    read_trace_jsonl,
    rss_mb,
)
from repro.telemetry.trace import INSTANT_KIND, SPAN_KIND, TRACE_SUMMARY_KIND
from tests.conftest import make_config


def _structure(tracer):
    """Events minus wall-clock and process measurements — the
    deterministic part.  A ``mem/sample`` instant keeps its
    ``resident_mb`` (a function of the seed) and drops its measured
    ``rss_mb``, as ``deterministic_view`` strips ``prof/`` gauges."""
    out = []
    for ev in tracer.events:
        ev = {k: v for k, v in ev.items() if k not in ("ts", "dur")}
        if ev["name"] == "mem/sample":
            ev["args"] = {k: v for k, v in ev["args"].items() if k != "rss_mb"}
        out.append(ev)
    return out


class TestSpanMechanics:
    def test_begin_end_nesting_and_parents(self):
        trc = SpanTracer()
        run_id = trc.begin("run", cat="run")
        round_id = trc.begin("round", cat="round", args={"round": 0})
        assert trc.end() == round_id
        assert trc.end() == run_id
        by_id = {ev["id"]: ev for ev in trc.events}
        assert by_id[run_id]["parent"] is None
        assert by_id[round_id]["parent"] == run_id
        # Inner span closes first, so it is emitted first.
        assert [ev["id"] for ev in trc.events] == [round_id, run_id]

    def test_lap_emits_phase_span_under_stack_top(self):
        trc = SpanTracer()
        rid = trc.begin("round", cat="round")
        t0 = trc.now()
        trc.phase("setup", t0, t0 + 0.25)
        trc.end()
        phase = next(ev for ev in trc.events if ev["cat"] == "phase")
        assert phase["name"] == "setup"
        assert phase["parent"] == rid
        assert phase["dur"] == 0.25

    def test_kernel_spans_reparent_to_closing_phase(self):
        trc = SpanTracer()
        trc.begin("round", cat="round")
        t0 = trc.now()
        trc.kernel("distance_block", t0, 0.001, 90, 1440)
        trc.phase("ch_select", t0, trc.now())
        trc.end()
        kernel = next(ev for ev in trc.events if ev["cat"] == "kernel")
        phase = next(ev for ev in trc.events if ev["cat"] == "phase")
        assert kernel["parent"] == phase["id"]
        assert kernel["args"] == {"elements": 90, "bytes": 1440}

    def test_instant_parents_to_open_span(self):
        trc = SpanTracer()
        rid = trc.begin("round", cat="round")
        trc.instant("fault/crash", cat="fault", args={"round": 3, "killed": 1})
        trc.end()
        inst = next(ev for ev in trc.events if ev["kind"] == INSTANT_KIND)
        assert inst["parent"] == rid
        assert inst["args"]["killed"] == 1

    def test_bounded_buffer_counts_drops(self):
        trc = SpanTracer(max_events=2)
        trc.begin("run")
        for i in range(5):
            trc.instant(f"i{i}")
        trc.end()  # run span itself dropped too: buffer already full
        assert len(trc.events) == 2
        assert trc.dropped == 4
        assert trc.summary()["dropped"] == 4

    def test_max_events_must_be_positive(self):
        with pytest.raises(ValueError):
            SpanTracer(max_events=0)

    def test_end_without_begin_raises(self):
        with pytest.raises(RuntimeError):
            SpanTracer().end()


class TestSummaryMerge:
    def _summary(self, names):
        trc = SpanTracer()
        for n in names:
            trc.begin(n)
            trc.end()
        return trc.summary()

    def test_merge_is_commutative(self):
        a = self._summary(["round", "round", "run"])
        b = self._summary(["round", "uplink"])
        assert merge_trace_summaries(a, b) == merge_trace_summaries(b, a)

    def test_empty_merge_is_identity(self):
        a = self._summary(["run"])
        merged = merge_trace_summaries(a, merge_trace_summaries())
        assert merged["spans_by_name"] == a["spans_by_name"]
        assert merged["events"] == a["events"]


class TestExports:
    def _traced_run(self, **kwargs):
        trc = SpanTracer()
        run_simulation(
            make_config(rounds=3, **kwargs), QLECProtocol(), tracer=trc
        )
        return trc

    def test_jsonl_round_trip(self, tmp_path):
        trc = self._traced_run()
        path = tmp_path / "trace.jsonl"
        trc.write_jsonl(path)
        loaded = read_trace_jsonl(path)
        assert loaded["manifest"]["kind"] == "manifest"
        assert loaded["summary"]["kind"] == TRACE_SUMMARY_KIND
        assert len(loaded["events"]) == len(trc.events)
        first = json.loads(path.read_text().splitlines()[0])
        assert first["kind"] == "manifest"

    def test_read_rejects_misplaced_manifest(self, tmp_path):
        lines = self._traced_run().to_jsonl().splitlines()
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join([lines[1], lines[0], *lines[2:]]) + "\n")
        with pytest.raises(ValueError, match="manifest must be the first"):
            read_trace_jsonl(path)

    def test_read_tolerates_torn_tail(self, tmp_path):
        trc = self._traced_run()
        path = tmp_path / "trace.jsonl"
        trc.write_jsonl(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "span", "id":')  # torn final line
        loaded = read_trace_jsonl(path)
        assert len(loaded["events"]) == len(trc.events)

    def test_chrome_export_valid_and_monotone(self):
        trc = self._traced_run()
        doc = json.loads(trc.to_chrome())
        events = doc["traceEvents"]
        assert events, "empty chrome trace"
        data = [e for e in events if e["ph"] != "M"]
        ts = [e["ts"] for e in data]
        assert ts == sorted(ts)  # monotone on the single tid
        assert all(e["ts"] >= 0 for e in data)
        assert all(e.get("dur", 0) >= 0 for e in data)
        assert all(e["tid"] == 0 and e["pid"] == 0 for e in data)
        assert {e["ph"] for e in data} <= {"X", "i"}

    def test_chrome_write(self, tmp_path):
        trc = self._traced_run()
        path = tmp_path / "trace.chrome.json"
        trc.write_chrome(path)
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc


class TestEngineIntegration:
    def _chaos_config(self):
        cfg = make_config(rounds=6)
        return dataclasses.replace(cfg, faults=build_fault_plan("ch-kill", cfg))

    def test_tracing_does_not_perturb_results(self):
        cfg = self._chaos_config()
        traced = run_simulation(cfg, QLECProtocol(), tracer=SpanTracer())
        plain = run_simulation(cfg, QLECProtocol())
        assert traced.total_energy == plain.total_energy
        assert traced.packets == plain.packets
        assert traced.faults == plain.faults

    def test_span_identities_deterministic(self):
        cfg = self._chaos_config()
        tracers = []
        for _ in range(2):
            trc = SpanTracer()
            run_simulation(cfg, QLECProtocol(), tracer=trc)
            tracers.append(trc)
        assert _structure(tracers[0]) == _structure(tracers[1])

    def test_hierarchy_and_fault_instants(self):
        cfg = self._chaos_config()
        trc = SpanTracer()
        run_simulation(cfg, QLECProtocol(), tracer=trc)
        spans = {ev["id"]: ev for ev in trc.events if ev["kind"] == SPAN_KIND}
        cats = {ev["cat"] for ev in trc.events}
        assert {"run", "round", "phase", "kernel"} <= cats
        run_spans = [s for s in spans.values() if s["cat"] == "run"]
        round_spans = [s for s in spans.values() if s["cat"] == "round"]
        assert len(run_spans) == 1
        assert len(round_spans) == cfg.rounds
        assert all(s["parent"] == run_spans[0]["id"] for s in round_spans)
        # The acceptance property: fault instants sit inside the round
        # span whose round index they carry.
        faults = [
            ev for ev in trc.events
            if ev["kind"] == INSTANT_KIND and ev["cat"] == "fault"
        ]
        assert faults, "ch-kill plan produced no fault instants"
        for inst in faults:
            parent = spans[inst["parent"]]
            assert parent["cat"] == "round"
            assert parent["args"]["round"] == inst["args"]["round"]
            assert parent["ts"] <= inst["ts"] <= parent["ts"] + parent["dur"]

    def test_engine_fills_tracer_manifest(self):
        trc = SpanTracer()
        engine = SimulationEngine(make_config(), QLECProtocol(), tracer=trc)
        assert trc.manifest is engine.manifest
        assert trc.manifest["kind"] == "manifest"

    def test_explicit_tracer_manifest_not_overwritten(self):
        trc = SpanTracer(manifest={"kind": "manifest", "custom": True})
        SimulationEngine(make_config(), QLECProtocol(), tracer=trc).run()
        assert trc.manifest == {"kind": "manifest", "custom": True}

    def test_mem_sample_instants_present(self):
        trc = SpanTracer()
        run_simulation(make_config(rounds=3), QLECProtocol(), tracer=trc)
        mems = [ev for ev in trc.events if ev["cat"] == "mem"]
        assert mems  # round 0 always samples (round_index % 8 == 0)
        assert "resident_mb" in mems[0]["args"]


class TestOneInstrument:
    """The engine's one handle: one lap clock feeding both sinks."""

    def test_phase_counters_equal_span_durations(self):
        tel = Telemetry()
        trc = SpanTracer()
        run_simulation(
            make_config(rounds=4), QLECProtocol(), telemetry=tel, tracer=trc
        )
        span_sums: dict[str, float] = {}
        for ev in trc.events:
            if ev["cat"] == "phase":
                span_sums[ev["name"]] = span_sums.get(ev["name"], 0.0) + ev["dur"]
        counters = {
            name[len("time/phase/"):]: m["value"]
            for name, m in tel.snapshot().items()
            if name.startswith("time/phase/")
        }
        assert len(counters) == 11
        assert counters == span_sums

    def test_trace_only_run_has_no_registry(self):
        trc = SpanTracer()
        engine = SimulationEngine(make_config(rounds=2), QLECProtocol(), tracer=trc)
        result = engine.run()
        assert engine.telemetry.registry is None
        assert engine.telemetry.spans is trc
        assert "telemetry" not in result.extras
        assert trc.summary()["spans_by_name"]["round"] == 2

    def test_telemetry_only_run_records_no_spans(self):
        tel = Telemetry(profile_kernels=True)
        engine = SimulationEngine(
            make_config(rounds=2), QLECProtocol(), telemetry=tel
        )
        result = engine.run()
        assert engine.telemetry is tel
        assert tel.spans is None
        assert engine.kernels.tracer is None
        assert "telemetry" in result.extras


def test_rss_mb_returns_positive_or_none():
    value = rss_mb()
    assert value is None or value > 0
