"""Micro-benchmarks of the hot kernels.

Profiling (per the optimisation workflow in the HPC guides: measure,
then optimise) shows the simulator's time goes to (1) the per-packet Q
backup, (2) pairwise-distance evaluations in clustering, and (3) the
improved-DEEC election.  These benchmarks pin their costs so
regressions show up in CI timing diffs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.fcm import fuzzy_c_means
from repro.baselines.kmeans import kmeans
from repro.core import QLECProtocol
from repro.core.selection import ImprovedDEECSelector
from repro.energy.radio import FirstOrderRadio
from repro.network.channel import delivery_probability
from repro.network.topology import pairwise_distances
from repro.simulation.state import NetworkState
from repro.telemetry import config_fingerprint
from tests.conftest import make_config

from conftest import publish_json


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(0).random((500, 3)) * 200.0


def test_pairwise_distances_500x500(benchmark, points):
    d = benchmark(pairwise_distances, points, points)
    assert d.shape == (500, 500)


def test_kmeans_500pts_k8(benchmark, points):
    result = benchmark(kmeans, points, 8, 0)
    assert result.centroids.shape == (8, 3)


def test_fcm_500pts_k8(benchmark, points):
    result = benchmark(fuzzy_c_means, points, 8, 2.0, 0)
    assert result.membership.shape == (500, 8)


def test_radio_amp_vectorized(benchmark):
    radio = FirstOrderRadio()
    distances = np.random.default_rng(1).random(10_000) * 300.0
    out = benchmark(radio.amp, 4000, distances)
    assert out.shape == (10_000,)


def test_delivery_probability_vectorized(benchmark):
    distances = np.random.default_rng(2).random(10_000) * 300.0
    p = benchmark(delivery_probability, distances, 87.7)
    assert p.shape == (10_000,)


def test_deec_selection_round_n400(benchmark):
    state = NetworkState(make_config(n_nodes=400, n_clusters=10, seed=0))
    selector = ImprovedDEECSelector(10)
    result = benchmark(selector.select, state)
    assert result.k >= 1


def test_q_backup_per_packet(benchmark):
    """One Send-Data decision (Algorithm 4) — the innermost hot call."""
    state = NetworkState(make_config(n_nodes=100, n_clusters=5, seed=0))
    proto = QLECProtocol()
    proto.prepare(state)
    heads = proto.select_cluster_heads(state)
    router = proto.router
    choice = benchmark(router.choose, 0, heads)
    assert choice in set(heads.tolist()) | {state.bs_index}


# ----------------------------------------------------------------------
# Slot kernel: the batched data path at scale.
# ----------------------------------------------------------------------

def _slot_kernel_config():
    """A congested large instance: N=2896 nodes, k=272 heads, one
    packet per node per slot on average (lambda ~ 1)."""
    return make_config(
        n_nodes=2896, side=400.0, n_clusters=272,
        mean_interarrival=1.0, rounds=1, seed=0, initial_energy=2.0,
    )


def test_slot_kernel_round_n2896(benchmark):
    """One full ``run_round`` of the batched kernel at scale."""
    from repro.simulation.engine import SimulationEngine

    cfg = _slot_kernel_config()

    def fresh_round():
        return SimulationEngine(cfg, QLECProtocol(), batched=True).run_round()

    rs = benchmark(fresh_round)
    assert rs.packets.generated > 20_000


def test_telemetry_disabled_overhead_under_2pct():
    """The disabled instrument must cost < 2 % of the N=2896
    slot-kernel round.

    With no :class:`Telemetry` and no tracer attached the engine holds
    the NULL singleton, and every instrumented site issues one no-op
    ``NULL.lap`` call — so the whole disabled cost is that call's
    per-call cost times the markers one round issues.  We measure it
    directly, multiply by the marker count, and compare against the
    measured round time — a deterministic bound that doesn't depend on
    run-to-run jitter between two full-round timings.
    """
    import time

    from repro.simulation.engine import SimulationEngine
    from repro.telemetry import NULL

    cfg = _slot_kernel_config()
    best = float("inf")
    for _ in range(2):
        engine = SimulationEngine(cfg, QLECProtocol(), batched=True)
        t0 = time.perf_counter()
        engine.run_round()
        best = min(best, time.perf_counter() - t0)

    calls = 200_000
    t0 = time.perf_counter()
    for _ in range(calls):
        NULL.lap("phase")
    per_call = (time.perf_counter() - t0) / calls

    # Markers per round: ~8 lap sites per slot x slots_per_round, plus
    # a handful of per-round hooks; 100x headroom on the count.
    slots = cfg.traffic.slots_per_round
    markers = (8 * slots + 20) * 100
    overhead = per_call * markers
    assert overhead < 0.02 * best, (
        f"disabled instrument overhead {overhead * 1e6:.1f}us "
        f"vs round {best * 1e3:.1f}ms"
    )


def test_telemetry_enabled_round_n2896(benchmark):
    """One instrumented ``run_round`` at scale (for timing diffs against
    ``test_slot_kernel_round_n2896``)."""
    from repro.simulation.engine import SimulationEngine
    from repro.telemetry import Telemetry

    cfg = _slot_kernel_config()

    def fresh_round():
        return SimulationEngine(
            cfg, QLECProtocol(), batched=True, telemetry=Telemetry()
        ).run_round()

    rs = benchmark(fresh_round)
    assert rs.packets.generated > 20_000


def test_slot_kernel_speedup_and_identity():
    """The batched kernel must beat the scalar reference path by >= 3x
    on the congested instance while producing identical aggregates."""
    import time

    from repro.simulation.engine import SimulationEngine

    cfg = _slot_kernel_config()
    timings = {}
    aggregates = {}
    for batched in (True, False):
        best = float("inf")
        for _ in range(2):
            engine = SimulationEngine(cfg, QLECProtocol(), batched=batched)
            t0 = time.perf_counter()
            rs = engine.run_round()
            best = min(best, time.perf_counter() - t0)
        timings[batched] = best
        aggregates[batched] = rs.row()
    assert aggregates[True] == aggregates[False]
    speedup = timings[False] / timings[True]
    publish_json(
        "slot_kernel",
        {
            "bench": "slot_kernel",
            "config_fingerprint": config_fingerprint(cfg),
            "n_nodes": cfg.deployment.n_nodes,
            "rounds": 1,
            "seconds": {"batched": timings[True], "scalar": timings[False]},
            "speedup": speedup,
            "speedup_floor": 3.0,
        },
    )
    assert speedup >= 3.0, f"slot kernel speedup regressed: {speedup:.2f}x"


# ----------------------------------------------------------------------
# Paper-scale round: fixed per-call cost at N = 100.
# ----------------------------------------------------------------------

#: The Fig. 3 protocols, timed on one 20-round Table-2 cell each.
PAPER_PROTOCOLS = ("qlec", "fcm", "kmeans")


def _per_call_us(fn, number: int, repeat: int = 5) -> float:
    """Best-of-``repeat`` mean wall time of one ``fn()`` call, in µs."""
    import timeit

    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number * 1e6


def test_paper_round_record():
    """Publish ``BENCH_paper_round.json``.

    Table 2 and Fig. 3 run at N = 100, where a round is mostly fixed
    per-call numpy cost on arrays of 10-30 elements.  The record holds
    the wall time of one 20-round cell at λ = 4 per Fig. 3 protocol
    (best of 3), their ``node_rounds_per_sec`` (the key the
    bench-regression gate compares), and the per-call cost of the
    round's three hottest calls on n = 100 elements over k = 10 groups:
    ``EnergyLedger.discharge_many`` (n charges on k nodes),
    ``ewma_fold_shared`` (n outcomes on k targets) and
    ``fuzzy_c_means`` (n points, k clusters), plus the once-a-round
    build of the link table a QLEC round reads (``round_links``: the
    n x (k+1) distances, transmit energies, delivery probabilities and
    costs ``y``).
    """
    import time

    from repro.analysis.sweep import run_cell
    from repro.core.rewards import RewardModel
    from repro.energy.battery import EnergyLedger
    from repro.kernels import NumpyBackend
    from repro.parallel import SweepSpec
    from repro.simulation.links import RoundLinks

    lam, rounds = 4.0, 20
    cfg = SweepSpec(
        protocols=PAPER_PROTOCOLS[:1], lambdas=(lam,), seeds=(0,),
        rounds=rounds, backend="numpy",
    ).cells()[0].config
    n_nodes = cfg.deployment.n_nodes
    cell_s = {}
    for protocol in PAPER_PROTOCOLS:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            s = run_cell(
                protocol=protocol, mean_interarrival=lam, seed=0,
                rounds=rounds, backend="numpy",
            )
            best = min(best, time.perf_counter() - t0)
        cell_s[protocol] = best
        # A sane regime: packets are conserved and most are delivered.
        assert s["rounds"] == rounds
        lost = s["dropped_queue"] + s["dropped_channel"]
        assert s["delivered"] + lost <= s["generated"]
        assert 0.5 < s["pdr"] <= 1.0, (protocol, s["pdr"])

    n, k = 100, 10
    rng = np.random.default_rng(0)
    ledger = EnergyLedger(np.full(n, 1e3))
    idx = rng.integers(0, k, n)
    amounts = rng.uniform(0.0, 1e-4, n)
    row = rng.uniform(0.0, 1.0, k + 1)
    targets = rng.integers(0, k, n)
    obs = (rng.random(n) < 0.8).astype(np.float64)
    table = np.power(1.0 - 0.2, np.arange(n + 1))
    kernels = NumpyBackend()
    points = rng.uniform(0.0, 100.0, (n, 3))
    state = NetworkState(cfg)
    assert state.n == n
    heads = np.arange(0, n, n // k)
    rewards = RewardModel(
        cfg.qlearning, state.radio, cfg.traffic.packet_bits,
        energy_scale=float(state.ledger.initial.mean()),
    )

    def build_links():
        links = RoundLinks(state, heads)
        links.price(heads, heads)  # transmit energies and probabilities
        links.derived(rewards.y)

    per_call_us = {
        "discharge_many": _per_call_us(
            lambda: ledger.discharge_many(idx, amounts, "rx"), 2000
        ),
        "ewma_fold_shared": _per_call_us(
            lambda: kernels.ewma_fold_shared(row, targets, obs, 0.2, table), 2000
        ),
        "fuzzy_c_means": _per_call_us(
            lambda: fuzzy_c_means(points, k, 2.0, 0), 5
        ),
        "round_links": _per_call_us(build_links, 500),
    }
    assert ledger.n_alive == n

    publish_json(
        "paper_round",
        {
            "bench": "paper_round",
            "config_fingerprint": config_fingerprint(cfg),
            "n_nodes": n_nodes,
            "rounds": rounds,
            "lambda": lam,
            "cell_seconds": cell_s,
            "node_rounds_per_sec": (
                len(PAPER_PROTOCOLS) * n_nodes * rounds / sum(cell_s.values())
            ),
            "per_call_us": per_call_us,
            "per_call_n": n,
            "per_call_k": k,
        },
    )


# ----------------------------------------------------------------------
# Cold start: what a command pays before it does any work.
# ----------------------------------------------------------------------


def test_cold_start_record(tmp_path):
    """Publish ``BENCH_cold_start.json``.

    For each command of ``tests/test_import_budget.py`` (``import
    repro``, ``repro --help``, and re-running a finished two-cell
    ``repro sweep``): the median wall time of 5 fresh interpreters,
    the number of ``repro.*`` modules it loads, and whether it loads
    numpy.  ``modules_ceiling`` holds the module counts; the
    bench-regression gate fails a fresh record that loads more than
    the committed baseline's ceiling.
    """
    import statistics
    import time

    from tests.test_import_budget import (
        COMMANDS,
        finish_sweep,
        loaded_modules,
        repro_modules,
        run_python,
    )

    runs = 5
    finish_sweep(tmp_path)
    commands = {}
    for name, args in COMMANDS.items():
        walls = []
        for _ in range(runs):
            t0 = time.perf_counter()
            run_python(args, tmp_path)
            walls.append(time.perf_counter() - t0)
        modules = loaded_modules(args, tmp_path)
        commands[name] = {
            "argv": list(args),
            "wall_s": statistics.median(walls),
            "repro_modules": len(repro_modules(modules)),
            "loads_numpy": "numpy" in modules,
        }
    publish_json(
        "cold_start",
        {
            "bench": "cold_start",
            "runs": runs,
            "commands": commands,
            "modules_ceiling": {
                name: c["repro_modules"] for name, c in commands.items()
            },
        },
    )
