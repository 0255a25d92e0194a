"""Benchmark: transmission-latency distributions.

The abstract claims QLEC "outperforms ... in terms of transmission
latency" but the paper plots no latency figure.  This bench regenerates
what that figure would be: per-protocol delivery-latency percentiles
(slots) on the Table-2 scenario at the busy operating point, where the
FCM hierarchy pays extra hops and congested queues pay waiting time.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import latency_percentiles, render_table
from repro.analysis.sweep import PROTOCOLS
from repro.config import paper_config
from repro.simulation import run_simulation

from conftest import publish

PROTOS = ("qlec", "fcm", "kmeans", "deec", "tl-leach")
SEEDS = (0, 1, 2)


def test_latency_distributions(benchmark):
    def run():
        rows = []
        for name in PROTOS:
            pooled: list[int] = []
            delivered = 0
            for seed in SEEDS:
                config = paper_config(mean_interarrival=4.0, seed=seed)
                result = run_simulation(config, PROTOCOLS_LOCAL[name]())
                delivered += result.packets.delivered
                pooled.extend(result.packets.latencies)
            stats = latency_percentiles(pooled)
            # A run past the reservoir's capacity keeps a uniform sample
            # of its deliveries, so the pooled sample can be smaller
            # than the packets delivered.
            rows.append({
                "protocol": name,
                "n delivered": delivered,
                "n sampled": len(pooled),
                **stats,
            })
        return rows

    PROTOCOLS_LOCAL = PROTOCOLS
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    publish(
        "latency_distributions",
        render_table(
            rows, precision=2,
            title="delivery latency [slots], lambda = 4, pooled over seeds",
        ),
    )
    by_name = {r["protocol"]: r for r in rows}
    # The abstract's claim: QLEC's typical latency beats the multi-hop
    # FCM hierarchy's.
    assert by_name["qlec"]["p50"] <= by_name["fcm"]["p50"] + 0.5
    assert by_name["qlec"]["mean"] <= by_name["fcm"]["mean"] + 0.25
    # Tail sanity: percentiles are ordered for everyone.
    for r in rows:
        if not np.isnan(r["p50"]):
            assert r["p50"] <= r["p90"] <= r["p99"]
