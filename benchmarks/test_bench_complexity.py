"""Benchmark E-C1: the §4.3 complexity claims, measured.

* Lemma 2 — O(RN) selection phase: wall-clock across N at fixed R, with
  k ~ sqrt(N); the per-(node x round) cost must stay bounded as N grows
  100x.  The fitted exponent in N is published.
* Lemma 3 — O(kX) Q-learning: exactly k+1 Q evaluations per V update,
  and the relaxation's update count X measured to convergence.
* Relay choice across k at fixed N: the full Q block costs O(k) per
  sender; the pruned greedy path, which scores only the heads a reward
  bound cannot rule out, must not grow with k.  The fitted exponents
  are published next to Lemma 3's count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    measure_qlearning_updates,
    measure_relay_choice_scaling,
    measure_selection_scaling,
    render_complexity_report,
    scaling_exponent,
)

from conftest import publish


def test_lemma2_selection_scales_linearly(benchmark):
    """N in {10^3, 10^4, 10^5} with k ~ sqrt(N), where the election's
    own cost, not fixed overhead, sets the time."""
    rows = benchmark.pedantic(
        measure_selection_scaling,
        kwargs={"n_values": (1_000, 10_000, 100_000), "rounds": 20},
        rounds=1,
        iterations=1,
    )
    # O(RN): the per-(node*round) cost must not *grow* with N.  The
    # vectorized election amortises its fixed overhead, so the unit
    # cost actually falls as N rises — sub-linear is fine, super-linear
    # is the regression this guards against.
    unit_costs = [r.seconds_per_node_round for r in rows]
    assert unit_costs[-1] <= 2.0 * unit_costs[0] + 1e-6


def test_lemma3_q_evaluations_per_update(benchmark):
    row = benchmark.pedantic(measure_qlearning_updates, rounds=1, iterations=1)
    assert row.evaluations_per_update == pytest.approx(row.k + 1)
    assert row.v_updates > 0


def test_relay_choice_scaling_in_k(benchmark):
    """Relay choice per sender for k in {32, ..., 512} at N = 10^4;
    publishes the E-C1 report with both fitted exponents."""
    relay = benchmark.pedantic(measure_relay_choice_scaling, rounds=1, iterations=1)
    publish(
        "complexity",
        render_complexity_report(
            measure_selection_scaling(), measure_qlearning_updates(), relay
        ),
    )
    ks = [r.k for r in relay]
    block = scaling_exponent(ks, [r.block_s for r in relay])
    pruned = scaling_exponent(ks, [r.pruned_s for r in relay])
    assert block > 0.5  # the full block is linear in k, up to overheads
    assert pruned < 0.5 * block
    assert relay[-1].pruned_s < relay[-1].block_s


def test_lemma3_updates_scale_with_k(benchmark):
    """X grows with the action-set size k (more Q entries per sweep)."""
    def run():
        evals = {}
        for k in (2, 4, 8):
            r = measure_qlearning_updates(k=k)
            evals[r.k] = r.q_evaluations / max(r.v_updates, 1)
        return evals

    evals = benchmark.pedantic(run, rounds=1, iterations=1)
    ks = sorted(evals)
    assert all(evals[a] < evals[b] for a, b in zip(ks, ks[1:]))


def test_engine_round_throughput(benchmark):
    """Throughput anchor: one Table-2 QLEC round (engine + protocol)."""
    from repro.config import paper_config
    from repro.core import QLECProtocol
    from repro.simulation.engine import SimulationEngine

    engine = SimulationEngine(paper_config(seed=0, rounds=10_000), QLECProtocol())
    benchmark(engine.run_round)


def test_scaling_in_network_size(benchmark):
    """End-to-end run cost vs N (empirical exponent printed)."""
    from repro.baselines import KMeansProtocol
    from repro.simulation.engine import run_simulation
    from tests.conftest import make_config
    import time

    def run():
        timings = {}
        for n in (50, 100, 200, 400):
            cfg = make_config(n_nodes=n, rounds=3, n_clusters=max(2, n // 20),
                              seed=0)
            t0 = time.perf_counter()
            run_simulation(cfg, KMeansProtocol())
            timings[n] = time.perf_counter() - t0
        return timings

    timings = benchmark.pedantic(run, rounds=1, iterations=1)
    ns = sorted(timings)
    exponent = np.polyfit(
        np.log([float(n) for n in ns]), np.log([timings[n] for n in ns]), 1
    )[0]
    publish(
        "engine_scaling",
        "engine wall-clock scaling in N: "
        + ", ".join(f"N={n}: {timings[n]*1e3:.1f} ms" for n in ns)
        + f"\nempirical exponent ~ {exponent:.2f}",
    )
    assert exponent < 2.5  # data plane stays near-linear in N
