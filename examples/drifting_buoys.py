#!/usr/bin/env python3
"""Drifting solar buoys: mobility + harvesting + tracing in one scenario.

A fleet of 80 surface buoys drifts with Gauss-Markov currents across a
300 m patch of ocean, recharging from solar panels, while QLEC keeps
re-clustering them around a moored gateway.  Demonstrates the three
extension subsystems working together and the trace/ASCII tooling:

* :mod:`repro.network.mobility`  — correlated drift;
* :mod:`repro.energy.harvesting` — diurnal solar income;
* the run trace (:class:`repro.telemetry.SpanTracer`, whose
  ``round/end`` instants name each round's heads) + ASCII layout views.

Run:  python examples/drifting_buoys.py
"""

from repro import (
    DeploymentConfig,
    QLECProtocol,
    SimulationConfig,
    SimulationEngine,
    TrafficConfig,
)
from repro.analysis import network_ascii, render_kv
from repro.energy.harvesting import HarvestingConfig
from repro.network.mobility import MobilityConfig
from repro.telemetry import SpanTracer

SIDE = 300.0
N_BUOYS = 80
ROUNDS = 40


def main() -> None:
    config = SimulationConfig(
        deployment=DeploymentConfig(
            n_nodes=N_BUOYS,
            side=SIDE,
            initial_energy=0.06,
            # Moored gateway in the middle of the patch, at the surface.
            bs_position=(SIDE / 2, SIDE / 2, SIDE / 2),
        ),
        traffic=TrafficConfig(mean_interarrival=6.0),
        rounds=ROUNDS,
        n_clusters=6,
        seed=11,
        mobility=MobilityConfig(model="gauss_markov", speed=8.0, memory=0.85),
        harvesting=HarvestingConfig(
            model="solar", mean_income=0.0015, rounds_per_day=20
        ),
    )
    tracer = SpanTracer()
    engine = SimulationEngine(config, QLECProtocol(), tracer=tracer)
    initial_positions = engine.state.nodes.positions.copy()

    result = engine.run()
    heads_by_round = [
        ev["args"]["heads"] for ev in tracer.events if ev["name"] == "round/end"
    ]

    print("initial layout (x-y projection; H = head, S = gateway):")
    print(
        network_ascii(
            initial_positions,
            heads=heads_by_round[0],
            bs_position=engine.state.bs.position,
            width=56,
            height=16,
        )
    )

    print("\nfinal layout after 40 rounds of drift:")
    print(
        network_ascii(
            engine.state.nodes.positions,
            heads=heads_by_round[-1],
            bs_position=engine.state.bs.position,
            width=56,
            height=16,
        )
    )

    # Rotation fairness: how many rounds each buoy served as a head.
    service: dict[int, int] = {}
    for heads in heads_by_round:
        for h in heads:
            service[h] = service.get(h, 0) + 1
    print()
    print(
        render_kv(
            {
                "delivery rate": result.delivery_rate,
                "gross energy spent [J]": result.total_energy,
                "buoys alive at end": result.n_alive_final,
                "distinct buoys that served as head": len(service),
                "max head-service rounds (one buoy)": max(service.values()),
                "balance index": result.energy_balance_index(),
            },
            title="drifting solar-buoy fleet, QLEC, 40 rounds",
        )
    )


if __name__ == "__main__":
    main()
