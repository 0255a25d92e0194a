"""Backend speedup gate: numba vs the numpy reference at scale.

The numba backend exists to make the grouped slot kernels cheaper on
large instances, so this gate times one full ``run_round`` of the
N=2896 congested instance under each backend and requires numba to
win by >= 1.5x while producing *identical* round aggregates (the
bit-equivalence contract of ``repro.kernels``).

Skips with a reason when numba is not installed — the CI numba matrix
leg runs it.  Results are published both as ASCII and as a
machine-readable ``BENCH_kernel_backends.json``.
"""

from __future__ import annotations

import time

import pytest

from repro.core import QLECProtocol
from repro.kernels import available_backends, backend_versions
from repro.simulation.engine import SimulationEngine
from repro.telemetry import config_fingerprint
from tests.conftest import make_config

from conftest import publish, publish_json

SPEEDUP_FLOOR = 1.5


def _config():
    """Same congested instance the scalar-vs-batched gate uses."""
    return make_config(
        n_nodes=2896, side=400.0, n_clusters=272,
        mean_interarrival=1.0, rounds=1, seed=0, initial_energy=2.0,
    )


def _best_round_time(cfg, backend, repeats=3):
    best, aggregates = float("inf"), None
    for _ in range(repeats):
        engine = SimulationEngine(cfg, QLECProtocol(), backend=backend)
        t0 = time.perf_counter()
        rs = engine.run_round()
        best = min(best, time.perf_counter() - t0)
        aggregates = rs.row()
    return best, aggregates


@pytest.mark.skipif(
    "numba" not in available_backends(),
    reason="numba not installed — the backend speedup gate runs on the "
    "CI numba leg (pip install numba)",
)
def test_numba_backend_speedup_n2896():
    cfg = _config()

    # Warm-up run so numba's JIT compilation is not timed.
    SimulationEngine(cfg, QLECProtocol(), backend="numba").run_round()

    t_numpy, agg_numpy = _best_round_time(cfg, "numpy")
    t_numba, agg_numba = _best_round_time(cfg, "numba")

    assert agg_numpy == agg_numba, "backends diverged on round aggregates"
    speedup = t_numpy / t_numba

    versions = backend_versions()
    publish(
        "kernel_backends",
        "Kernel backend speedup (N=2896 congested round)\n"
        f"  numpy {versions['numpy']}: {t_numpy * 1e3:8.1f} ms\n"
        f"  numba {versions['numba']}: {t_numba * 1e3:8.1f} ms\n"
        f"  speedup: {speedup:.2f}x (floor {SPEEDUP_FLOOR}x)",
    )
    publish_json(
        "kernel_backends",
        {
            "bench": "kernel_backends",
            "config_fingerprint": config_fingerprint(cfg),
            "n_nodes": cfg.deployment.n_nodes,
            "rounds": 1,
            "backend_versions": versions,
            "seconds": {"numpy": t_numpy, "numba": t_numba},
            "speedup": speedup,
            "speedup_floor": SPEEDUP_FLOOR,
        },
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"numba backend speedup regressed: {speedup:.2f}x"
    )
