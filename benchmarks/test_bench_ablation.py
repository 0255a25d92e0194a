"""Benchmark E-AB1: ablation of QLEC's design choices.

Regenerates the design-choice table DESIGN.md calls out: each of the
paper's three mechanisms switched off independently, the sampled-TD and
epsilon-greedy extensions, plus the classic-protocol anchors — all on
the identical Table-2 scenarios.
"""

from __future__ import annotations

from repro.experiments import render_ablation, run_ablation

from conftest import publish


def test_ablation_table(benchmark):
    rows = benchmark.pedantic(
        run_ablation,
        kwargs={"seeds": (0, 1, 2), "mean_interarrival": 4.0},
        rounds=1,
        iterations=1,
    )
    publish("ablation", render_ablation(rows))
    by_name = {r["variant"]: r for r in rows}
    full = by_name["qlec (full)"]

    # Anchors: full QLEC must dominate the energy-blind classics on
    # lifespan and the no-clustering strawman on delivery.
    assert full["lifespan"] >= by_name["leach"]["lifespan"]
    assert full["lifespan"] >= by_name["kmeans (adaptive)"]["lifespan"]
    assert full["pdr"] > by_name["direct"]["pdr"]

    # Removing Q-learning (nearest join) must not improve balance.
    nearest = by_name["qlec w/o q-learning (nearest join)"]
    assert full["balance"] >= nearest["balance"] - 0.05


def test_ablation_congested(benchmark):
    """The same table at the congested operating point."""
    rows = benchmark.pedantic(
        run_ablation,
        kwargs={"seeds": (0, 1), "mean_interarrival": 2.0},
        rounds=1,
        iterations=1,
    )
    publish("ablation_congested", render_ablation(rows))
    assert len(rows) == len(
        {r["variant"] for r in rows}
    ), "variant names must be unique"
