"""The per-round trace in the span sink: its ``round/end`` records and
the manifest header of its JSONL dump."""

import json

from repro.telemetry import read_trace_jsonl
from tests.simulation.test_run_trace import round_ends, run_traced


class TestTraceRecorder:
    def test_one_record_per_round(self):
        tracer, result = run_traced(rounds=4)
        assert len(round_ends(tracer)) == result.rounds_executed == 4

    def test_round_indices_sequential(self):
        tracer, _ = run_traced()
        assert [ev["args"]["round"] for ev in round_ends(tracer)] == [0, 1, 2, 3]

    def test_jsonl_round_trips(self, tmp_path):
        tracer, _ = run_traced(rounds=2)
        path = tmp_path / "run.trace.jsonl"
        tracer.write_jsonl(path)
        loaded = read_trace_jsonl(path)
        assert loaded["manifest"]["protocol"] == "qlec"
        loaded_ends = [
            ev["args"] for ev in loaded["events"] if ev["name"] == "round/end"
        ]
        assert loaded_ends == [ev["args"] for ev in round_ends(tracer)]
        assert loaded["summary"]["instants_by_name"]["round/end"] == 2

    def test_write_jsonl(self, tmp_path):
        tracer, _ = run_traced(rounds=2)
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        lines = path.read_text().strip().splitlines()
        # manifest header + one line per event + summary trailer
        assert len(lines) == len(tracer.events) + 2
        events = [json.loads(line) for line in lines[1:-1]]
        assert sum(ev["name"] == "round/end" for ev in events) == 2


class TestManifestHeader:
    def test_engine_fills_manifest(self):
        tracer, _ = run_traced(seed=3)
        assert tracer.manifest is not None
        assert tracer.manifest["kind"] == "manifest"
        assert tracer.manifest["protocol"] == "qlec"
        assert tracer.manifest["seed"] == 3

    def test_manifest_is_first_jsonl_line(self):
        tracer, _ = run_traced(rounds=2)
        first = json.loads(tracer.to_jsonl().splitlines()[0])
        assert first["kind"] == "manifest"
        assert first["package"] == "repro"
