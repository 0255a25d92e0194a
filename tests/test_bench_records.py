"""Bench records: fresh runs write ``benchmarks/results/`` only, so the
regression gate compares them with the committed root baselines."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load("bench_conftest", ROOT / "benchmarks" / "conftest.py")
gate = _load("check_bench_regression", ROOT / "scripts" / "check_bench_regression.py")


def test_publish_leaves_the_root_baseline_alone(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    results = repo / "benchmarks" / "results"
    results.parent.mkdir(parents=True)
    baseline = {"node_rounds_per_sec": 1000.0, "throughput_floor": 100.0}
    (repo / "BENCH_demo.json").write_text(json.dumps(baseline))
    before = (repo / "BENCH_demo.json").read_bytes()
    committed = {p.name: p.read_bytes() for p in ROOT.glob("BENCH_*.json")}
    monkeypatch.setattr(bench, "RESULTS_DIR", results)

    # A fresh run 50% slower than the baseline, above its absolute floor.
    path = bench.publish_json("demo", dict(baseline, node_rounds_per_sec=500.0))

    assert path == results / "BENCH_demo.json"
    assert sorted(p.name for p in repo.iterdir()) == ["BENCH_demo.json", "benchmarks"]
    assert (repo / "BENCH_demo.json").read_bytes() == before
    assert {p.name: p.read_bytes() for p in ROOT.glob("BENCH_*.json")} == committed
    # So the gate sees the drop instead of comparing the record with itself.
    argv = ["--fresh-dir", str(results), "--baseline-dir", str(repo)]
    assert gate.main(argv) == 1
    bench.publish_json("demo", baseline)
    assert gate.main(argv) == 0
