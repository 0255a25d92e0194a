"""Experiment: measuring X, the Q-learning convergence count (§4.3).

Theorem 3 argues QLEC runs in O(kX) because "it usually takes many
times to update all V values in a large-scale wireless sensor network.
Hence, X tends to be much larger than N or R."  This driver quantifies
X directly: for growing network sizes it relaxes the V table to
convergence (sup-norm tolerance) and reports

* X — total single-entry V updates to convergence,
* X / N — sweeps needed (does the paper's "X >> N" claim hold?),
* wall-clock per update, and the O(k) per-update cost.

It also exposes the convergence *trajectory* (sup-norm deltas per
sweep) so the geometric gamma-contraction is visible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import render_table
from ..config import paper_config
from ..core import QLECProtocol
from ..rl.convergence import ConvergenceTracker
from ..simulation.state import NetworkState

__all__ = ["XMeasurement", "measure_x", "run_convergence_study"]


@dataclass(frozen=True)
class XMeasurement:
    n_nodes: int
    k: int
    sweeps: int
    x_updates: int
    q_evaluations: int
    deltas: tuple[float, ...]
    mode: str = "expected"

    @property
    def x_over_n(self) -> float:
        return self.x_updates / self.n_nodes

    @property
    def contraction_rate(self) -> float:
        """Geometric decay estimate from consecutive finite deltas."""
        finite = [d for d in self.deltas if np.isfinite(d) and d > 0.0]
        if len(finite) < 2:
            return 0.0
        ratios = [b / a for a, b in zip(finite, finite[1:]) if a > 0]
        return float(np.median(ratios)) if ratios else 0.0


def measure_x(
    n_nodes: int = 100,
    k: int = 5,
    seed: int = 0,
    tol: float = 1e-6,
    mode: str = "expected",
    learning_rate: float = 0.3,
) -> XMeasurement:
    """Relax a fresh QLEC V table to convergence and count everything.

    ``mode="expected"`` is the paper's model-based backup (V jumps to
    max Q each update — converges in a handful of sweeps).
    ``mode="sampled"`` moves V by a partial TD step instead, the
    classical online regime in which the paper's "X tends to be much
    larger than N" discussion actually holds.
    """
    if mode not in ("expected", "sampled"):
        raise ValueError("mode must be 'expected' or 'sampled'")
    config = paper_config(seed=seed)
    config = config.replace(
        deployment=config.deployment.__class__(
            n_nodes=n_nodes,
            side=config.deployment.side,
            initial_energy=config.deployment.initial_energy,
        ),
        n_clusters=k,
    )
    state = NetworkState(config)
    protocol = QLECProtocol()
    protocol.prepare(state)
    heads = protocol.select_cluster_heads(state)
    router = protocol.router
    assert router is not None
    members = np.setdiff1d(state.alive_indices(), heads)

    tracker = ConvergenceTracker(tol=tol)
    sweeps = 0
    for _ in range(router.cfg.max_backups):
        for node in members:
            q, _ = router.q_values(int(node), heads)
            target = float(q.max())
            if mode == "expected":
                router.v[int(node)] = target
            else:
                old = router.v[int(node)]
                router.v[int(node)] = old + learning_rate * (target - old)
        sweeps += 1
        tracker.observe(router.v.values)
        if tracker.converged:
            break
    return XMeasurement(
        n_nodes=n_nodes,
        k=int(heads.size),
        sweeps=sweeps,
        x_updates=router.v.update_count,
        q_evaluations=router.q_evaluations,
        deltas=tuple(tracker.deltas),
        mode=mode,
    )


def run_convergence_study(
    n_values=(50, 100, 200, 400),
    k: int = 5,
    seed: int = 0,
    modes=("expected", "sampled"),
) -> list[XMeasurement]:
    return [
        measure_x(n_nodes=int(n), k=k, seed=seed, mode=mode)
        for mode in modes
        for n in n_values
    ]


def render_convergence_study(rows: list[XMeasurement]) -> str:
    table = [
        {
            "mode": r.mode,
            "N": r.n_nodes,
            "k": r.k,
            "sweeps": r.sweeps,
            "X (V updates)": r.x_updates,
            "X / N": r.x_over_n,
            "Q evals": r.q_evaluations,
            "contraction": r.contraction_rate,
        }
        for r in rows
    ]
    return render_table(
        table, precision=3,
        title="X — V updates to convergence (Theorem 3's quantity)",
    )
