"""Large-N scale gate: N=1e5 nodes under a bounded memory budget.

The blocked distance path (``--max-block-mb``) exists so deployments
two orders of magnitude beyond the paper's 2896-node dataset fit in
memory: the engine never materialises more than the declared block of
the sender x target distance matrix at once.  This gate runs a
multi-round N=100_000 simulation under a 64 MiB block budget and
enforces:

* throughput — nodes x rounds per second above a conservative floor,
* memory — peak RSS far below what an O(N^2) (or even an unblocked
  N x k) working set would need,
* fidelity — one blocked round is aggregate-identical to the same
  round with the block budget off (the bitwise contract at scale).

Published as ``BENCH_scale.json`` for the CI regression gate.
"""

from __future__ import annotations

import resource
import time

from repro.core import QLECProtocol
from repro.simulation.engine import SimulationEngine
from repro.telemetry import config_fingerprint
from tests.conftest import make_config

from conftest import publish, publish_json

#: Nodes x rounds per second.  Measured ~350-480k on a 2-vCPU Xeon
#: (2.1 GHz) host with the exact spaced CH election (~330-440k with
#: candidate pruning in relay choice alone, ~100k with the tiled Q
#: block alone, ~30k before tiling); the floor leaves
#: ample headroom for slower CI runners, and the committed
#: BENCH_scale.json carries the relative regression gate.
THROUGHPUT_FLOOR = 4_000.0

#: Peak RSS ceiling in MiB.  An unblocked N x k distance matrix alone
#: is ~250 MiB and an O(N^2) one ~80 GiB; the measured peak is ~75.5 MiB
#: total (~105 MiB with the tiled Q block, ~240 MiB before tiling), so
#: 2 GiB proves the working set stays linear in N.
RSS_CEILING_MB = 2_048.0

N_NODES = 100_000
ROUNDS = 2
MAX_BLOCK_MB = 64.0


def _scale_config(max_block_mb=MAX_BLOCK_MB, rounds=ROUNDS):
    """1e5 nodes at paper-like density with k ~ sqrt(N) heads."""
    return make_config(
        n_nodes=N_NODES, side=1500.0, n_clusters=316,
        mean_interarrival=16.0, rounds=rounds, seed=0, initial_energy=2.0,
        max_block_mb=max_block_mb,
    )


def test_scale_100k_nodes_blocked():
    cfg = _scale_config()
    engine = SimulationEngine(cfg, QLECProtocol(), batched=True)

    report = engine.state.memory_report()
    assert report["transient_block_mb"] <= MAX_BLOCK_MB
    # Resident per-node state is a few float64/bool arrays — linear in N.
    assert report["resident_mb"] < 64.0, report

    t0 = time.perf_counter()
    last = None
    for _ in range(cfg.rounds):
        last = engine.run_round()
    elapsed = time.perf_counter() - t0
    assert last is not None and last.packets.generated > 10_000

    node_rounds_per_sec = (N_NODES * cfg.rounds) / elapsed
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    publish(
        "scale",
        f"Large-N scale gate (N={N_NODES}, {cfg.rounds} rounds, "
        f"block budget {MAX_BLOCK_MB} MiB)\n"
        f"  wall time:        {elapsed:8.2f} s\n"
        f"  throughput:       {node_rounds_per_sec:8.0f} node-rounds/s "
        f"(floor {THROUGHPUT_FLOOR:.0f})\n"
        f"  peak RSS:         {rss_mb:8.1f} MiB (ceiling {RSS_CEILING_MB:.0f})\n"
        f"  resident arrays:  {report['resident_mb']:8.1f} MiB",
    )
    publish_json(
        "scale",
        {
            "bench": "scale",
            "config_fingerprint": config_fingerprint(cfg),
            "n_nodes": N_NODES,
            "rounds": cfg.rounds,
            "max_block_mb": MAX_BLOCK_MB,
            "seconds": elapsed,
            "node_rounds_per_sec": node_rounds_per_sec,
            "throughput_floor": THROUGHPUT_FLOOR,
            "peak_rss_mb": rss_mb,
            "rss_ceiling_mb": RSS_CEILING_MB,
            "resident_mb": report["resident_mb"],
            "generated": last.packets.generated,
            "delivered": last.packets.delivered,
            "n_alive": last.n_alive,
        },
    )

    assert node_rounds_per_sec >= THROUGHPUT_FLOOR, (
        f"scale throughput regressed: {node_rounds_per_sec:.0f} "
        f"node-rounds/s (floor {THROUGHPUT_FLOOR:.0f})"
    )
    assert rss_mb < RSS_CEILING_MB, (
        f"peak RSS {rss_mb:.0f} MiB breaches the {RSS_CEILING_MB:.0f} MiB "
        "ceiling — the blocked distance path is no longer bounding the "
        "working set"
    )


def test_scale_blocked_round_identical_to_unblocked():
    """The block budget is a memory knob, not a numeric one: one full
    N=1e5 round under a 64 MiB budget must produce aggregates
    bit-identical to the same round with blocking off."""
    aggregates = {}
    for budget in (MAX_BLOCK_MB, None):
        cfg = _scale_config(max_block_mb=budget, rounds=1)
        rs = SimulationEngine(cfg, QLECProtocol(), batched=True).run_round()
        aggregates[budget] = rs.row()
    assert aggregates[MAX_BLOCK_MB] == aggregates[None], (
        "blocked N=1e5 round diverged from the unblocked reference"
    )
