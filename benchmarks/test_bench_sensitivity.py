"""Benchmark: QLEC hyperparameter sensitivity (robustness study).

One-at-a-time perturbations around the Table-2 point; a healthy
reproduction shows a plateau — the headline results must not hinge on a
razor-edge hyperparameter choice the paper never justified.
"""

from __future__ import annotations

from repro.experiments import render_sensitivity, run_sensitivity

from conftest import publish


def test_sensitivity_study(benchmark):
    rows = benchmark.pedantic(
        run_sensitivity, kwargs={"seeds": (0, 1)}, rounds=1, iterations=1
    )
    publish("sensitivity", render_sensitivity(rows))

    by_axis: dict[str, list] = {}
    for r in rows:
        by_axis.setdefault(r["axis"], []).append(r)

    # Plateau check per axis: the worst perturbed PDR stays within 0.15
    # of the default's.
    for axis, axis_rows in by_axis.items():
        default = next(r for r in axis_rows if r["default"])
        for r in axis_rows:
            assert r["pdr"] > default["pdr"] - 0.15, (axis, r["value"])

    # The BS penalty is the one knob that must not be *removed*: with
    # l ~ O(per-packet rewards) members leak onto the throttled direct
    # path.  Large values are all equivalent (the plateau).
    penalties = {r["value"]: r["pdr"] for r in by_axis["bs_penalty"]}
    assert penalties[1000.0] == penalties[100.0] or (
        abs(penalties[1000.0] - penalties[100.0]) < 0.05
    )
