"""Experiment E-F4: the §5.3 large-scale dataset run (paper Fig. 4).

The paper runs QLEC over 2896 power-plant nodes in China (k_opt = 272
heads) and plots each node's energy-consumption *ratio* (consumed /
initial) on the map, observing that "nodes with high energy consumption
rate ... are evenly distributed in the network", i.e. QLEC spreads the
drain instead of burning hotspots.

We regenerate the quantitative content of that figure: the per-node
consumption-ratio distribution, its spatial evenness (consumption of
spatial quadrants, Jain's index, and the correlation between a node's
consumption ratio and its distance to the BS — a hotspot protocol shows
strong structure; QLEC should not).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import jains_index, render_kv, render_table
from ..config import (
    DeploymentConfig,
    QLearningConfig,
    QueueConfig,
    RadioConfig,
    SimulationConfig,
    TrafficConfig,
)
from ..baselines import FCMProtocol, KMeansProtocol
from ..baselines.base import ClusteringProtocol
from ..core import QLECProtocol
from ..datasets import load_power_plants
from ..simulation import SimulationResult, run_simulation

__all__ = ["Fig4Config", "Fig4Report", "run_fig4"]


@dataclass(frozen=True)
class Fig4Config:
    """Knobs of the large-scale run."""

    n_nodes: int = 2896
    #: The paper derives k_opt = 272 for this network via Theorem 1.
    n_clusters: int = 272
    rounds: int = 10
    mean_interarrival: float = 16.0
    #: Positions are rescaled into a cube of this side so the radio
    #: constants stay in their calibrated regime (the raw map spans
    #: thousands of km, far beyond any sensor radio).  250 keeps the
    #: dense east within the free-space radius of its heads.
    side: float = 250.0
    seed: int = 0
    dataset_path: str | None = None
    #: Spatial grid used for the evenness report (g x g quadrants).
    grid: int = 4
    #: Baselines to run on the identical network for the relative
    #: evenness comparison ("qlec" always runs).
    compare: tuple[str, ...] = ()
    #: Kernel-backend selector (``auto``/``numpy``).
    backend: str = "auto"
    #: Optional distance-block memory budget in MiB.
    max_block_mb: float | None = None


@dataclass
class Fig4Report:
    """Quantitative restatement of Fig. 4."""

    result: SimulationResult
    consumption_ratio: np.ndarray
    balance_index: float
    quadrant_means: np.ndarray
    distance_correlation: float
    k: int
    #: protocol name -> balance index on the identical network.
    comparison: dict[str, float] | None = None

    def render(self) -> str:
        c = self.consumption_ratio
        header = render_kv(
            {
                "nodes": c.size,
                "clusters (k)": self.k,
                "pdr": self.result.delivery_rate,
                "total energy [J]": self.result.total_energy,
                "balance index (Jain)": self.balance_index,
                "consumption ratio mean": float(c.mean()),
                "consumption ratio std": float(c.std()),
                "corr(ratio, d_to_bs)": self.distance_correlation,
            },
            title="Fig. 4 — energy consumption rate, large-scale dataset",
        )
        rows = []
        g = self.quadrant_means.shape[0]
        for i in range(g):
            row = {"quadrant row": i}
            for j in range(g):
                row[f"col {j}"] = float(self.quadrant_means[i, j])
            rows.append(row)
        out = header + "\n\n" + render_table(
            rows, title="mean consumption ratio per spatial quadrant"
        )
        if self.comparison:
            comp_rows = [
                {"protocol": name, "balance index": value}
                for name, value in self.comparison.items()
            ]
            out += "\n\n" + render_table(
                comp_rows,
                title="relative evenness on the identical network",
            )
        return out


def run_fig4(config: Fig4Config | None = None) -> Fig4Report:
    """Build the dataset network, run QLEC, and measure evenness."""
    cfg = config if config is not None else Fig4Config()
    rng = np.random.default_rng(cfg.seed)
    dataset = load_power_plants(cfg.dataset_path, n_fallback=cfg.n_nodes, rng=rng)
    nodes, bs, energies = dataset.to_network(side=cfg.side)

    sim_config = SimulationConfig(
        deployment=DeploymentConfig(
            n_nodes=nodes.n,
            side=cfg.side,
            # Per-node energies are heterogeneous; the deployment value
            # is a placeholder (the engine takes initial_energy below).
            initial_energy=float(energies.mean()),
            bs_position=tuple(bs.position),
        ),
        radio=RadioConfig(),
        qlearning=QLearningConfig(),
        traffic=TrafficConfig(mean_interarrival=cfg.mean_interarrival),
        queue=QueueConfig(),
        rounds=cfg.rounds,
        n_clusters=cfg.n_clusters,
        seed=cfg.seed,
        backend=cfg.backend,
        max_block_mb=cfg.max_block_mb,
    )
    def run_protocol(protocol: ClusteringProtocol) -> SimulationResult:
        return run_simulation(
            sim_config, protocol, nodes=nodes, bs=bs, initial_energy=energies
        )

    result = run_protocol(QLECProtocol())

    comparison: dict[str, float] | None = None
    if cfg.compare:
        factories = {"fcm": FCMProtocol, "kmeans": KMeansProtocol}
        comparison = {"qlec": jains_index(result.consumption_ratio)}
        for name in cfg.compare:
            if name == "qlec":
                continue
            other = run_protocol(factories[name]())
            comparison[name] = jains_index(other.consumption_ratio)

    ratio = result.consumption_ratio
    positions = result.positions
    # Spatial quadrants over the (x, y) footprint.
    g = cfg.grid
    x_edges = np.linspace(positions[:, 0].min(), positions[:, 0].max() + 1e-9, g + 1)
    y_edges = np.linspace(positions[:, 1].min(), positions[:, 1].max() + 1e-9, g + 1)
    quadrant = np.zeros((g, g))
    for i in range(g):
        for j in range(g):
            mask = (
                (positions[:, 0] >= x_edges[i])
                & (positions[:, 0] < x_edges[i + 1])
                & (positions[:, 1] >= y_edges[j])
                & (positions[:, 1] < y_edges[j + 1])
            )
            quadrant[i, j] = float(ratio[mask].mean()) if mask.any() else np.nan

    d_bs = np.linalg.norm(positions - np.asarray(bs.position), axis=1)
    if ratio.std() > 0 and d_bs.std() > 0:
        corr = float(np.corrcoef(ratio, d_bs)[0, 1])
    else:
        corr = 0.0

    return Fig4Report(
        result=result,
        consumption_ratio=ratio,
        balance_index=jains_index(ratio),
        quadrant_means=quadrant,
        distance_correlation=corr,
        k=cfg.n_clusters,
        comparison=comparison,
    )
