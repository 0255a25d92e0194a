"""Hyperparameter sensitivity of QLEC (robustness study, ours).

The paper fixes its hyperparameters in Table 2 without justification
(γ = 0.95, α₁ = β₁ = 0.05, α₂ = β₂ = 1.05, plus the penalty l and
the un-published ACK-estimator settings).  This study perturbs each
knob independently around the Table-2 point and measures the damage on
the three headline metrics — the standard one-at-a-time robustness
sweep a reviewer would ask for.

A robust reproduction should show a *plateau*: QLEC's advantage should
not hinge on a razor-edge hyperparameter choice.

Each axis value is one QLEC sweep whose ``overrides`` move that knob;
each row holds the seed means of the sweep rows' (rounded) summary
values.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from ..analysis import render_table, sweep_from_spec
from ..parallel import SweepSpec
from .ablation import seed_means

__all__ = ["SENSITIVITY_AXES", "run_sensitivity", "render_sensitivity"]


#: axis name -> (values,); see :func:`_axis_spec` for the field each
#: axis moves.
SENSITIVITY_AXES: dict[str, tuple[tuple, ...]] = {
    "gamma": ((0.5, 0.8, 0.95, 0.99),),
    "alpha2": ((0.25, 1.05, 2.0, 4.0),),
    "bs_penalty": ((1.0, 10.0, 100.0, 1000.0),),
    "g": ((0.0, 0.1, 0.5),),
    "estimator_alpha": ((0.02, 0.08, 0.3),),
    "estimator_shared": ((False, True),),
}

_COLUMNS = ("axis", "value", "default", "pdr", "energy_J", "lifespan", "balance")


def _axis_spec(
    axis: str, value, mean_interarrival: float, seeds: Sequence[int]
) -> SweepSpec:
    """QLEC on Table 2 at ``mean_interarrival`` with one axis moved.

    ``alpha2`` moves ``beta2`` with it (the paper ties the pair); the
    estimator knobs are top-level config fields, the rest Q-learning
    ones.
    """
    if axis not in SENSITIVITY_AXES:
        raise KeyError(f"unknown sensitivity axis {axis!r}")
    if axis == "alpha2":
        override = {"qlearning": {"alpha2": value, "beta2": value}}
    elif axis.startswith("estimator_"):
        override = {axis: value}
    else:
        override = {"qlearning": {axis: value}}
    return SweepSpec(
        protocols=("qlec",),
        lambdas=(mean_interarrival,),
        seeds=tuple(seeds),
        overrides=override,
    )


def run_sensitivity(
    axes: Sequence[str] | None = None,
    seeds: Sequence[int] = (0, 1),
    mean_interarrival: float = 4.0,
) -> list[dict]:
    """One-at-a-time perturbation around the Table-2 point."""
    chosen = list(axes) if axes is not None else list(SENSITIVITY_AXES)
    rows: list[dict] = []
    for axis in chosen:
        (values,) = SENSITIVITY_AXES[axis]
        for value in values:
            spec = _axis_spec(axis, value, mean_interarrival, seeds)
            lam, seed = spec.lambdas[0], spec.seeds[0]
            table2 = dataclasses.replace(spec, overrides={})
            rows.append(
                {
                    "axis": axis,
                    "value": value,
                    "default": spec.config(lam, seed) == table2.config(lam, seed),
                    "lambda": lam,
                    **seed_means(sweep_from_spec(spec), "qlec", lam),
                }
            )
    return rows


def render_sensitivity(rows: list[dict]) -> str:
    return render_table(
        rows,
        columns=_COLUMNS,
        precision=4,
        title="QLEC hyperparameter sensitivity "
        f"(Table-2 scenario, lambda = {rows[0]['lambda']:g})",
    )
