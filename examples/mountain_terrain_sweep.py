#!/usr/bin/env python3
"""Mountain-terrain congestion sweep on a process pool.

The paper motivates 3-D clustering with "mountainous areas"; this
example drapes 120 sensors over a synthetic massif (gateway on the
summit), then sweeps the Poisson congestion level for QLEC, one
independent cell per (lambda, seed) on a standard-library process pool.

Run:  python examples/mountain_terrain_sweep.py
"""

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro import (
    DeploymentConfig,
    QLECProtocol,
    SimulationConfig,
    SimulationEngine,
    TrafficConfig,
    mountain_terrain,
)
from repro.analysis import render_series

SIDE = 250.0
N_NODES = 120
LAMBDAS = (3.0, 6.0, 12.0, 24.0)
SEEDS = (0, 1, 2)


def run_one(lam: float, seed: int) -> dict:
    """One sweep cell (module-level so the process pool can pickle it)."""
    nodes, bs = mountain_terrain(
        N_NODES, SIDE, 0.2, rng=np.random.default_rng(500 + seed)
    )
    config = SimulationConfig(
        deployment=DeploymentConfig(
            n_nodes=N_NODES, side=SIDE, initial_energy=0.2,
            bs_position=tuple(bs.position),
        ),
        traffic=TrafficConfig(mean_interarrival=lam),
        rounds=20,
        n_clusters=6,
        seed=seed,
    )
    engine = SimulationEngine(config, QLECProtocol(), nodes=nodes, bs=bs)
    result = engine.run()
    return {
        "lambda": lam,
        "seed": seed,
        "pdr": result.delivery_rate,
        "energy": result.total_energy,
        "latency": result.mean_latency,
    }


def main() -> None:
    cells = [(lam, seed) for lam in LAMBDAS for seed in SEEDS]
    with ProcessPoolExecutor() as pool:
        rows = list(pool.map(run_one, *zip(*cells)))

    def series(metric: str) -> list[float]:
        return [
            float(np.mean([r[metric] for r in rows if r["lambda"] == lam]))
            for lam in LAMBDAS
        ]

    print(
        render_series(
            "lambda",
            list(LAMBDAS),
            {
                "delivery rate": series("pdr"),
                "energy [J]": series("energy"),
                "latency [slots]": series("latency"),
            },
            title=f"QLEC on a {N_NODES}-sensor mountain massif "
            f"(summit gateway, {len(SEEDS)} seeds/point)",
        )
    )


if __name__ == "__main__":
    main()
