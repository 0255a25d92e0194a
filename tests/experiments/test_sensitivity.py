"""Tests for the hyperparameter sensitivity study."""

import pytest

from repro.experiments import (
    SENSITIVITY_AXES,
    render_sensitivity,
    run_sensitivity,
)
from repro.experiments.sensitivity import _axis_spec


def _patched_config(axis, value, mean_interarrival, seed):
    """The config a sensitivity cell runs: Table 2 with one axis moved."""
    spec = _axis_spec(axis, value, mean_interarrival, (seed,))
    return spec.config(mean_interarrival, seed)


class TestPatching:
    def test_gamma_patch(self):
        config = _patched_config("gamma", 0.5, 4.0, 0)
        assert config.qlearning.gamma == 0.5

    def test_alpha2_patches_beta2_too(self):
        config = _patched_config("alpha2", 2.0, 4.0, 0)
        assert config.qlearning.alpha2 == 2.0
        assert config.qlearning.beta2 == 2.0

    def test_estimator_patches_top_level(self):
        config = _patched_config("estimator_shared", False, 4.0, 0)
        assert config.estimator_shared is False

    def test_unknown_axis_rejected(self):
        with pytest.raises(KeyError):
            _patched_config("warp_factor", 9, 4.0, 0)

    def test_patch_preserves_everything_else(self):
        config = _patched_config("bs_penalty", 10.0, 4.0, 0)
        assert config.qlearning.gamma == 0.95
        assert config.deployment.n_nodes == 100


class TestStudy:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_sensitivity(
            axes=("gamma", "estimator_shared"), seeds=(0,)
        )

    def test_all_values_covered(self, rows):
        gammas = [r["value"] for r in rows if r["axis"] == "gamma"]
        assert gammas == list(SENSITIVITY_AXES["gamma"][0])

    def test_default_flagged_once_per_axis(self, rows):
        for axis in ("gamma", "estimator_shared"):
            defaults = [r for r in rows if r["axis"] == axis and r["default"]]
            assert len(defaults) == 1

    def test_metrics_in_range(self, rows):
        for r in rows:
            assert 0.0 <= r["pdr"] <= 1.0
            assert r["energy_J"] > 0.0
            assert 0.0 < r["balance"] <= 1.0

    def test_plateau_around_default(self, rows):
        """Robustness: no perturbation collapses QLEC (pdr stays within
        15 points of the default's on this scenario)."""
        default_pdr = next(
            r["pdr"] for r in rows if r["axis"] == "gamma" and r["default"]
        )
        for r in rows:
            assert r["pdr"] > default_pdr - 0.15

    def test_render(self, rows):
        text = render_sensitivity(rows)
        assert "sensitivity" in text
        assert "gamma" in text
