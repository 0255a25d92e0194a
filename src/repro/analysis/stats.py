"""Summary statistics for replicated simulation runs.

Every Fig.-3 point is a mean over seeds; these helpers provide the
means, confidence intervals, and censoring-aware lifespan summaries the
report tables print.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MeanCI", "mean_ci", "censored_mean", "jains_index", "latency_percentiles"]


@dataclass(frozen=True)
class MeanCI:
    """A mean with a symmetric confidence half-width."""

    mean: float
    half_width: float
    n: int

    @property
    def lo(self) -> float:
        return self.mean - self.half_width

    @property
    def hi(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g}"


def mean_ci(values, confidence: float = 0.95) -> MeanCI:
    """Student-t confidence interval for the mean of ``values``."""
    v = np.asarray(list(values), dtype=np.float64)
    if v.size == 0:
        raise ValueError("need at least one value")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    m = float(v.mean())
    if v.size == 1:
        return MeanCI(m, float("nan"), 1)
    sem = float(v.std(ddof=1)) / np.sqrt(v.size)
    from scipy import stats as sps  # imported on first use: ~1 s

    t = float(sps.t.ppf(0.5 + confidence / 2.0, df=v.size - 1))
    return MeanCI(m, t * sem, int(v.size))


def censored_mean(values, censored) -> tuple[float, int]:
    """Mean of lifespans where some runs never observed a death.

    Censored entries contribute their observed value (a lower bound);
    the second return is the number of censored runs so tables can
    annotate (e.g. "18.2 (3 censored)").
    """
    v = np.asarray(list(values), dtype=np.float64)
    c = np.asarray(list(censored), dtype=bool)
    if v.shape != c.shape:
        raise ValueError("values and censored must align")
    if v.size == 0:
        raise ValueError("need at least one value")
    return float(v.mean()), int(c.sum())


def jains_index(values) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)`` in [1/n, 1]."""
    v = np.asarray(list(values), dtype=np.float64)
    if v.size == 0:
        raise ValueError("need at least one value")
    if np.any(v < 0):
        raise ValueError("values must be non-negative")
    denom = v.size * float((v * v).sum())
    if denom == 0.0:
        return 1.0
    return float(v.sum()) ** 2 / denom


def latency_percentiles(
    latencies, qs=(50, 90, 99)
) -> dict[str, float]:
    """Latency distribution summary (the abstract's "transmission
    latency" claim deserves more than a mean): percentiles in slots.

    ``latencies`` is any iterable of per-packet latencies — typically
    a run's ``PacketStats.latencies``, which is exact below the
    reservoir capacity (4096 deliveries) and a uniform sample of all
    the run's deliveries beyond it, so the percentiles here are
    estimates on long runs while ``mean`` from
    :class:`~repro.network.packet.PacketStats` itself stays exact.

    Returns ``{"p50": ..., "p90": ..., "p99": ..., "mean": ..., "max": ...}``
    (NaN everywhere when nothing was delivered).
    """
    v = np.asarray(list(latencies), dtype=np.float64)
    if v.size == 0:
        nan = float("nan")
        return {**{f"p{q}": nan for q in qs}, "mean": nan, "max": nan}
    out = {f"p{q}": float(np.percentile(v, q)) for q in qs}
    out["mean"] = float(v.mean())
    out["max"] = float(v.max())
    return out
