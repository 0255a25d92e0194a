"""Experiment E-AB1: ablation of QLEC's design choices.

The paper motivates three additions over its substrates; this
experiment switches each off independently and measures the damage:

* Eq. (4) energy threshold (keep drained nodes out of the election);
* Algorithm 3 redundancy reduction (d_c-spaced heads);
* Q-learning relay choice vs plain nearest-head joining;
* the paper's expected backup vs a sampled-TD variant (extension);
* classic DEEC / LEACH / HEED / adaptive k-means / direct anchors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import render_table
from ..baselines import (
    DEECProtocol,
    DirectProtocol,
    HEEDProtocol,
    KMeansProtocol,
    LEACHProtocol,
)
from ..baselines.base import ClusteringProtocol, NearestHeadRelayMixin
from ..config import paper_config
from ..core import QLECProtocol, SelectionConfig
from ..simulation import run_simulation

__all__ = ["AblationRow", "ABLATION_VARIANTS", "run_ablation", "render_ablation"]


class _NearestJoinQLEC(NearestHeadRelayMixin, QLECProtocol):
    """QLEC's head selection but members simply join the nearest head
    (ablates the whole Q-learning transmission phase).  The mixin comes
    first so the batched ``choose_relays`` joins the nearest head too,
    not only the scalar ``choose_relay``."""

    name = "qlec/no-qlearning"

    def choose_relay(self, state, node, heads, queue_lengths):
        d = state.distances_from(node, heads)
        return int(heads[d.argmin()])


#: name -> factory for each ablation variant.
ABLATION_VARIANTS: dict[str, object] = {
    "qlec (full)": lambda: QLECProtocol(),
    "qlec w/o energy threshold": lambda: QLECProtocol(
        selection=SelectionConfig(use_energy_threshold=False)
    ),
    "qlec w/o redundancy reduction": lambda: QLECProtocol(
        selection=SelectionConfig(use_redundancy_reduction=False)
    ),
    "qlec w/o rotation": lambda: QLECProtocol(
        selection=SelectionConfig(use_rotation=False)
    ),
    "qlec w/o q-learning (nearest join)": _NearestJoinQLEC,
    "qlec sampled-TD backup": lambda: QLECProtocol(learning_rate=0.3),
    "qlec eps-greedy 0.05": lambda: QLECProtocol(epsilon=0.05),
    "deec (classic)": DEECProtocol,
    "leach": LEACHProtocol,
    "heed": HEEDProtocol,
    "kmeans (adaptive)": lambda: KMeansProtocol(recluster_every=1),
    "direct": DirectProtocol,
}


@dataclass(frozen=True)
class AblationRow:
    variant: str
    pdr: float
    energy: float
    lifespan: float
    censored_runs: int
    balance: float

    def as_dict(self) -> dict:
        return {
            "variant": self.variant,
            "pdr": self.pdr,
            "energy_J": self.energy,
            "lifespan": self.lifespan,
            "censored": self.censored_runs,
            "balance": self.balance,
        }


def run_ablation(
    variants: dict | None = None,
    mean_interarrival: float = 4.0,
    seeds=(0, 1, 2),
    initial_energy: float = 0.25,
    rounds: int = 20,
) -> list[AblationRow]:
    """Run every variant over the same scenarios and summarize."""
    table = variants if variants is not None else ABLATION_VARIANTS
    rows = []
    for name, factory in table.items():
        results = []
        for seed in seeds:
            config = paper_config(
                mean_interarrival=mean_interarrival,
                seed=seed,
                rounds=rounds,
                initial_energy=initial_energy,
            )
            protocol: ClusteringProtocol = factory()
            results.append(run_simulation(config, protocol))
        rows.append(
            AblationRow(
                variant=name,
                pdr=float(np.mean([r.delivery_rate for r in results])),
                energy=float(np.mean([r.total_energy for r in results])),
                lifespan=float(np.mean([r.lifespan for r in results])),
                censored_runs=sum(r.lifespan_censored for r in results),
                balance=float(
                    np.mean([r.energy_balance_index() for r in results])
                ),
            )
        )
    return rows


def render_ablation(rows: list[AblationRow]) -> str:
    return render_table(
        [r.as_dict() for r in rows],
        precision=4,
        title="QLEC ablation (lambda = 4.0, Table-2 scenario)",
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(render_ablation(run_ablation()))


if __name__ == "__main__":  # pragma: no cover
    main()
