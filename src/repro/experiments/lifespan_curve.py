"""Alive-nodes-over-time curves and FND/HND/LND lifespan metrics.

The paper reports lifespan as a single number per condition (Fig. 3(c)).
The WSN literature the paper builds on (LEACH, DEEC) standardises three
richer milestones — First Node Death, Half Nodes Death, Last Node
Death — readable off the alive-count curve.  This driver runs every
protocol on an energy-constrained Table-2 scenario until (near) total
depletion and tabulates both the curve and the milestones.

Expected shape: QLEC's curve stays flat longest and then drops *steeply*
(even drain means nodes die together), while the energy-blind baselines
bleed nodes early; QLEC's FND is the latest, while its LND is not
necessarily so — a protocol that burns one hotspot node early can
stretch its last survivor for a long time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import render_series, render_table
from ..analysis.sweep import PROTOCOLS
from ..config import paper_config
from ..simulation import SimulationResult, run_simulation

__all__ = ["LifespanCurveConfig", "LifespanCurveResult", "run_lifespan_curves"]


@dataclass(frozen=True)
class LifespanCurveConfig:
    protocols: tuple[str, ...] = ("qlec", "fcm", "kmeans", "deec", "leach")
    seeds: tuple[int, ...] = (0, 1, 2)
    mean_interarrival: float = 4.0
    #: Tight budget + long horizon so every protocol reaches HND.
    initial_energy: float = 0.1
    rounds: int = 60
    #: Curve sampling stride for the printed table.
    stride: int = 5


@dataclass
class LifespanCurveResult:
    config: LifespanCurveConfig
    #: protocol -> mean alive-count curve, shape (rounds,).
    curves: dict[str, np.ndarray]
    #: protocol -> (FND, HND, LND) means (NaN where censored everywhere).
    milestones: dict[str, tuple[float, float, float]]

    def render(self) -> str:
        cfg = self.config
        rounds = np.arange(1, cfg.rounds + 1)
        sampled = rounds[:: cfg.stride]
        series = {
            name: curve[:: cfg.stride].tolist()
            for name, curve in self.curves.items()
        }
        curve_block = render_series(
            "round", sampled.tolist(), series,
            precision=1,
            title="alive nodes per round (mean over seeds)",
        )
        rows = [
            {
                "protocol": name,
                "FND": fnd,
                "HND": hnd,
                "LND": lnd,
            }
            for name, (fnd, hnd, lnd) in self.milestones.items()
        ]
        milestone_block = render_table(
            rows, precision=1,
            title="lifespan milestones [rounds] (NaN = beyond the horizon)",
        )
        return curve_block + "\n\n" + milestone_block


def _milestones(results: list[SimulationResult], horizon: int):
    def mean_or_nan(values):
        vals = [v for v in values if v is not None]
        return float(np.mean(vals)) if vals else float("nan")

    return (
        mean_or_nan([r.first_death_round for r in results]),
        mean_or_nan([r.half_death_round for r in results]),
        mean_or_nan([r.last_death_round for r in results]),
    )


def run_lifespan_curves(
    config: LifespanCurveConfig | None = None,
) -> LifespanCurveResult:
    cfg = config if config is not None else LifespanCurveConfig()
    curves: dict[str, np.ndarray] = {}
    milestones: dict[str, tuple[float, float, float]] = {}
    for name in cfg.protocols:
        results = []
        for seed in cfg.seeds:
            sim_config = paper_config(
                mean_interarrival=cfg.mean_interarrival,
                seed=seed,
                rounds=cfg.rounds,
                initial_energy=cfg.initial_energy,
            )
            results.append(run_simulation(sim_config, PROTOCOLS[name]()))
        stacked = np.stack([r.alive_curve() for r in results])
        curves[name] = stacked.mean(axis=0)
        milestones[name] = _milestones(results, cfg.rounds)
    return LifespanCurveResult(config=cfg, curves=curves, milestones=milestones)
