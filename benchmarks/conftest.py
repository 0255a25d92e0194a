"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures, prints
the series in ASCII, and persists it under ``benchmarks/results/`` so
the artifact survives output capture.  Timing uses pytest-benchmark's
pedantic mode with a single round: these are experiment regenerations,
not micro-benchmarks (micro-benchmarks of the hot kernels live in
``test_bench_micro.py``).
"""

from __future__ import annotations

import json
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def publish(name: str, text: str) -> None:
    """Print a report block and persist it to benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{'=' * 72}\n{text}\n{'=' * 72}")


def publish_json(name: str, payload: dict) -> pathlib.Path:
    """Persist a machine-readable result to benchmarks/results/BENCH_<name>.json.

    The ASCII reports from :func:`publish` are for humans; this is the
    companion artifact for tooling (CI comparisons, regression diffs).
    Payloads must be JSON-serialisable as written — no coercion.

    Only ``benchmarks/results/`` is written.  The copies at the
    repository root are the committed baselines that
    ``scripts/check_bench_regression.py`` compares fresh records
    against, so a bench run never touches them.  To anchor a new
    baseline, run the bench, copy ``benchmarks/results/BENCH_<name>.json``
    to the root, and commit that copy on its own with the measurement
    that justifies it.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {path}")
    return path
