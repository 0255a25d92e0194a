"""Paired statistical comparison of protocols.

Fig.-3 style claims ("QLEC outperforms X") deserve paired-seed
statistics: every protocol runs on identical deployments/traffic per
seed, so differences are paired observations.  This module provides the
paired bootstrap and sign-test machinery the shape tests and report use
to state wins with uncertainty, plus a win/loss matrix over a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sweep import SweepResult

__all__ = ["PairedComparison", "paired_comparison", "win_matrix"]


@dataclass(frozen=True)
class PairedComparison:
    """Outcome of comparing metric(a) - metric(b) over paired seeds."""

    metric: str
    a: str
    b: str
    mean_diff: float
    ci_lo: float
    ci_hi: float
    wins: int
    losses: int
    ties: int
    p_value: float

    @property
    def n(self) -> int:
        return self.wins + self.losses + self.ties

    def __str__(self) -> str:
        return (
            f"{self.a} - {self.b} on {self.metric}: "
            f"{self.mean_diff:+.4g} [{self.ci_lo:+.4g}, {self.ci_hi:+.4g}] "
            f"(w/l/t {self.wins}/{self.losses}/{self.ties}, p={self.p_value:.3f})"
        )


def paired_comparison(
    sweep: SweepResult,
    metric: str,
    a: str,
    b: str,
    mean_interarrival: float | None = None,
    n_bootstrap: int = 5000,
    seed: int = 0,
) -> PairedComparison:
    """Paired bootstrap CI + exact sign test for metric(a) - metric(b).

    Rows are paired on (seed, lambda); both protocols must cover the
    same cells.
    """
    match = {} if mean_interarrival is None else {"lambda": mean_interarrival}
    rows_a = {
        (r["seed"], r["lambda"]): r[metric] for r in sweep.filtered(protocol=a, **match)
    }
    rows_b = {
        (r["seed"], r["lambda"]): r[metric] for r in sweep.filtered(protocol=b, **match)
    }
    keys = sorted(set(rows_a) & set(rows_b))
    if not keys:
        raise ValueError(f"no paired cells for {a!r} vs {b!r}")
    diffs = np.asarray([rows_a[k] - rows_b[k] for k in keys], dtype=np.float64)

    rng = np.random.default_rng(seed)
    if diffs.size > 1:
        idx = rng.integers(diffs.size, size=(n_bootstrap, diffs.size))
        boot_means = diffs[idx].mean(axis=1)
        ci_lo, ci_hi = np.percentile(boot_means, [2.5, 97.5])
    else:
        ci_lo = ci_hi = float(diffs.mean())

    wins = int((diffs > 0).sum())
    losses = int((diffs < 0).sum())
    ties = int((diffs == 0).sum())
    decisive = wins + losses
    # scipy.stats takes about a second to import: load it on first use,
    # not with every process that imports the sweep executor.
    from scipy import stats as sps

    p = (
        float(sps.binomtest(wins, decisive, 0.5).pvalue) if decisive else 1.0
    )
    return PairedComparison(
        metric=metric,
        a=a,
        b=b,
        mean_diff=float(diffs.mean()),
        ci_lo=float(ci_lo),
        ci_hi=float(ci_hi),
        wins=wins,
        losses=losses,
        ties=ties,
        p_value=p,
    )


def win_matrix(
    sweep: SweepResult,
    metric: str,
    protocols,
    higher_is_better: bool = True,
) -> dict[tuple[str, str], float]:
    """Fraction of paired cells where the row protocol beats the column
    one on ``metric`` (0.5 counted for ties)."""
    out: dict[tuple[str, str], float] = {}
    for a in protocols:
        for b in protocols:
            if a == b:
                continue
            cmp = paired_comparison(sweep, metric, a, b, n_bootstrap=100)
            score = (cmp.wins + 0.5 * cmp.ties) / max(cmp.n, 1)
            out[(a, b)] = score if higher_is_better else 1.0 - score
    return out
