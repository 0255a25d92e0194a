"""Experiment drivers: one module per paper table/figure (see DESIGN.md)."""

from .ablation import ABLATION_VARIANTS, render_ablation, run_ablation
from .convergence_x import (
    XMeasurement,
    measure_x,
    render_convergence_study,
    run_convergence_study,
)
from .lifespan_curve import (
    LifespanCurveConfig,
    LifespanCurveResult,
    run_lifespan_curves,
)
from .complexity import (
    QLearningCostRow,
    RelayChoiceRow,
    SelectionScalingRow,
    measure_qlearning_updates,
    measure_relay_choice_scaling,
    measure_selection_scaling,
    render_complexity_report,
    scaling_exponent,
)
from .fig1 import Fig1View, run_fig1
from .fig3 import (
    DEFAULT_LAMBDAS,
    Fig3Config,
    Fig3Result,
    fig3_from_artifacts,
    fig3_spec,
    run_fig3,
)
from .fig4 import Fig4Config, Fig4Report, run_fig4
from .kopt_validation import KoptReport, run_kopt_validation
from .sensitivity import (
    SENSITIVITY_AXES,
    render_sensitivity,
    run_sensitivity,
)

__all__ = [
    "ABLATION_VARIANTS",
    "DEFAULT_LAMBDAS",
    "Fig1View",
    "Fig3Config",
    "Fig3Result",
    "Fig4Config",
    "Fig4Report",
    "KoptReport",
    "SENSITIVITY_AXES",
    "LifespanCurveConfig",
    "LifespanCurveResult",
    "QLearningCostRow",
    "XMeasurement",
    "SelectionScalingRow",
    "fig3_from_artifacts",
    "fig3_spec",
    "measure_qlearning_updates",
    "measure_x",
    "measure_selection_scaling",
    "render_ablation",
    "render_complexity_report",
    "RelayChoiceRow",
    "measure_relay_choice_scaling",
    "scaling_exponent",
    "render_convergence_study",
    "render_sensitivity",
    "run_ablation",
    "run_convergence_study",
    "run_fig1",
    "run_fig3",
    "run_lifespan_curves",
    "run_sensitivity",
    "run_fig4",
    "run_kopt_validation",
]
