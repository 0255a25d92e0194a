"""Experiment E-AB1: ablation of QLEC's design choices.

The paper motivates three additions over its substrates; this
experiment switches each off independently and measures the damage:

* Eq. (4) energy threshold (keep drained nodes out of the election);
* Algorithm 3 redundancy reduction (d_c-spaced heads);
* Q-learning relay choice vs plain nearest-head joining;
* the paper's expected backup vs a sampled-TD variant (extension);
* classic DEEC / LEACH / HEED / adaptive k-means / direct anchors.

Every variant is a protocol of :data:`repro.analysis.sweep.PROTOCOLS`,
so the table is one sweep (variants x lambda x seeds); each row holds
the seed means of the sweep rows' (rounded) summary values.
"""

from __future__ import annotations

from ..analysis import SweepResult, render_table, sweep_from_spec
from ..parallel import SweepSpec

__all__ = ["ABLATION_VARIANTS", "run_ablation", "render_ablation"]


#: table label -> protocol name in :data:`repro.analysis.sweep.PROTOCOLS`.
ABLATION_VARIANTS: dict[str, str] = {
    "qlec (full)": "qlec",
    "qlec w/o energy threshold": "qlec/no-threshold",
    "qlec w/o redundancy reduction": "qlec/no-redundancy",
    "qlec w/o rotation": "qlec/no-rotation",
    "qlec w/o q-learning (nearest join)": "qlec/no-qlearning",
    "qlec sampled-TD backup": "qlec/sampled-td",
    "qlec eps-greedy 0.05": "qlec/eps-0.05",
    "deec (classic)": "deec",
    "leach": "leach",
    "heed": "heed",
    "kmeans (adaptive)": "kmeans-adaptive",
    "direct": "direct",
}

_COLUMNS = ("variant", "pdr", "energy_J", "lifespan", "censored", "balance")


def seed_means(sweep: SweepResult, protocol: str, lam: float) -> dict:
    """One table row's metrics: seed means of one (protocol, lambda)
    plus the number of its runs whose lifespan is censored."""
    rows = sweep.filtered(protocol=protocol, **{"lambda": lam})
    return {
        "pdr": sweep.aggregate("pdr", protocol, lam),
        "energy_J": sweep.aggregate("energy_J", protocol, lam),
        "lifespan": sweep.aggregate("lifespan", protocol, lam),
        "censored": sum(r["censored"] for r in rows),
        "balance": sweep.aggregate("balance_index", protocol, lam),
    }


def run_ablation(
    variants: dict[str, str] | None = None,
    mean_interarrival: float = 4.0,
    seeds=(0, 1, 2),
    initial_energy: float = 0.25,
    rounds: int = 20,
) -> list[dict]:
    """Run every variant over the same scenarios: one row per label."""
    table = variants if variants is not None else ABLATION_VARIANTS
    spec = SweepSpec(
        protocols=tuple(dict.fromkeys(table.values())),
        lambdas=(mean_interarrival,),
        seeds=tuple(seeds),
        initial_energy=initial_energy,
        rounds=rounds,
    )
    sweep = sweep_from_spec(spec)
    (lam,) = spec.lambdas
    return [
        {"variant": label, "lambda": lam, **seed_means(sweep, name, lam)}
        for label, name in table.items()
    ]


def render_ablation(rows: list[dict]) -> str:
    return render_table(
        rows,
        columns=_COLUMNS,
        precision=4,
        title=f"QLEC ablation (lambda = {rows[0]['lambda']}, Table-2 scenario)",
    )
