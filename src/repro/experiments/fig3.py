"""Experiment E-F3: regenerate the three panels of the paper's Fig. 3.

Fig. 3 compares QLEC, the FCM-based scheme, and classic k-means over
four network conditions (Poisson mean inter-arrival lambda) on:

* (a) packet delivery rate,
* (b) total energy consumption over R = 20 rounds,
* (c) network lifespan (rounds until the first node crosses the death
  line).

Expected shape (not absolute values — see EXPERIMENTS.md): QLEC holds
the highest delivery rate as congestion grows, with the FCM scheme
losing >10 % when congested (multi-hop) and k-means degrading from dead
static heads; QLEC outlives both by a wide margin; QLEC consumes less
than the FCM scheme, with per-delivered-packet energy lowest overall.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis import SweepResult, render_series, sweep_from_spec
from ..parallel import SweepSpec, merge_artifacts

__all__ = [
    "Fig3Config",
    "Fig3Result",
    "fig3_from_artifacts",
    "fig3_spec",
    "run_fig3",
    "DEFAULT_LAMBDAS",
]

#: The four network conditions, congested -> idle.  The paper does not
#: publish its lambda values; these four span saturation to idleness
#: for the Table-2 scenario.
DEFAULT_LAMBDAS = (2.0, 4.0, 8.0, 16.0)

#: The trio of Fig. 3.
FIG3_PROTOCOLS = ("qlec", "fcm", "kmeans")


@dataclass(frozen=True)
class Fig3Config:
    """Knobs of the Fig. 3 regeneration."""

    lambdas: tuple[float, ...] = DEFAULT_LAMBDAS
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    protocols: tuple[str, ...] = FIG3_PROTOCOLS
    initial_energy: float = 0.25
    rounds: int = 20
    serial: bool = False
    max_workers: int | None = None
    #: Instrument every cell and keep the merged metric snapshot on
    #: ``Fig3Result.telemetry``.
    telemetry: bool = False
    #: Kernel-backend selector for every cell (``auto``/``numpy``/...).
    backend: str = "auto"
    #: Optional distance-block memory budget in MiB (large-N runs).
    max_block_mb: float | None = None


@dataclass
class Fig3Result:
    """The three series blocks plus the raw sweep."""

    config: Fig3Config
    sweep: SweepResult
    pdr: dict[str, list[float]] = field(default_factory=dict)
    energy: dict[str, list[float]] = field(default_factory=dict)
    lifespan: dict[str, list[float]] = field(default_factory=dict)
    latency: dict[str, list[float]] = field(default_factory=dict)

    @property
    def telemetry(self) -> dict | None:
        """Merged metric snapshot across all cells (None unless the
        sweep ran with ``Fig3Config.telemetry=True``)."""
        return self.sweep.telemetry

    def render(self) -> str:
        lams = list(self.config.lambdas)
        blocks = [
            render_series(
                "lambda", lams, self.pdr,
                title="Fig. 3(a) — packet delivery rate",
            ),
            render_series(
                "lambda", lams, self.energy,
                title="Fig. 3(b) — total energy consumption [J]",
            ),
            render_series(
                "lambda", lams, self.lifespan,
                title="Fig. 3(c) — network lifespan [rounds until first death]",
            ),
            render_series(
                "lambda", lams, self.latency,
                title="(extra) mean transmission latency [slots]",
            ),
        ]
        return "\n\n".join(blocks)


def fig3_spec(config: Fig3Config | None = None) -> SweepSpec:
    """The sharding-layer grid description of a Fig. 3 regeneration.

    ``repro sweep --shard k/K`` with this spec's parameters runs any
    slice of the figure's grid on any host; the merged artifacts feed
    back through :func:`fig3_from_artifacts`.
    """
    cfg = config if config is not None else Fig3Config()
    return SweepSpec(
        protocols=cfg.protocols,
        lambdas=cfg.lambdas,
        seeds=cfg.seeds,
        initial_energy=cfg.initial_energy,
        rounds=cfg.rounds,
        telemetry=cfg.telemetry,
        backend=cfg.backend,
        max_block_mb=cfg.max_block_mb,
    )


def run_fig3(
    config: Fig3Config | None = None, sweep: SweepResult | None = None
) -> Fig3Result:
    """Run the sweep (or aggregate a pre-merged one) into the panels."""
    cfg = config if config is not None else Fig3Config()
    if sweep is None:
        sweep = sweep_from_spec(
            fig3_spec(cfg), max_workers=cfg.max_workers, serial=cfg.serial
        )
    lams = list(cfg.lambdas)
    return Fig3Result(
        config=cfg,
        sweep=sweep,
        pdr=sweep.series("pdr", cfg.protocols, lams),
        energy=sweep.series("energy_J", cfg.protocols, lams),
        lifespan=sweep.series("lifespan", cfg.protocols, lams),
        latency=sweep.series("latency_slots", cfg.protocols, lams),
    )


def fig3_from_artifacts(paths) -> Fig3Result:
    """Rebuild the Fig. 3 panels from merged shard artifacts.

    The grid shape (protocols, lambdas, seeds, energy, rounds) is read
    from the artifacts' shared sweep spec, so the panels are exactly
    those the equivalent single-host ``run_fig3`` would produce.
    Raises if the artifacts leave cells missing or errored — a figure
    silently aggregated over a partial grid is worse than no figure.
    """
    merged = merge_artifacts(paths).require_complete()
    spec = merged.spec
    cfg = Fig3Config(
        lambdas=spec.lambdas,
        seeds=spec.seeds,
        protocols=spec.protocols,
        initial_energy=spec.initial_energy,
        rounds=spec.rounds,
        telemetry=spec.telemetry,
        max_block_mb=spec.max_block_mb,
    )
    return run_fig3(cfg, sweep=merged.sweep)


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_fig3().render())


if __name__ == "__main__":  # pragma: no cover
    main()
