"""Tests for the experiment drivers (small instances for speed)."""

import numpy as np
import pytest

from repro.experiments import (
    ABLATION_VARIANTS,
    Fig3Config,
    Fig4Config,
    measure_qlearning_updates,
    measure_selection_scaling,
    render_ablation,
    render_complexity_report,
    run_ablation,
    run_fig3,
    run_fig4,
    run_kopt_validation,
)


class TestFig3Driver:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig3(
            Fig3Config(
                lambdas=(4.0, 16.0),
                seeds=(0,),
                rounds=4,
                serial=True,
            )
        )

    def test_all_panels_present(self, result):
        for panel in (result.pdr, result.energy, result.lifespan, result.latency):
            assert set(panel) == {"qlec", "fcm", "kmeans"}
            assert all(len(v) == 2 for v in panel.values())

    def test_pdr_in_unit_interval(self, result):
        for series in result.pdr.values():
            assert all(0.0 <= v <= 1.0 for v in series)

    def test_render_contains_all_figures(self, result):
        text = result.render()
        assert "Fig. 3(a)" in text
        assert "Fig. 3(b)" in text
        assert "Fig. 3(c)" in text

    def test_sweep_rows_kept(self, result):
        assert len(result.sweep.rows) == 3 * 2 * 1


class TestFig4Driver:
    @pytest.fixture(scope="class")
    def report(self):
        return run_fig4(
            Fig4Config(n_nodes=150, n_clusters=14, rounds=3, seed=1)
        )

    def test_consumption_ratio_valid(self, report):
        c = report.consumption_ratio
        assert c.shape == (150,)
        assert np.all((c >= 0.0) & (c <= 1.0))

    def test_balance_in_bounds(self, report):
        assert 0.0 < report.balance_index <= 1.0

    def test_quadrants_shape(self, report):
        assert report.quadrant_means.shape == (4, 4)

    def test_render(self, report):
        text = report.render()
        assert "Fig. 4" in text
        assert "quadrant" in text

    def test_comparison_optional(self):
        report = run_fig4(
            Fig4Config(
                n_nodes=100, n_clusters=9, rounds=2, seed=2, compare=("kmeans",)
            )
        )
        assert set(report.comparison) == {"qlec", "kmeans"}


class TestKoptDriver:
    def test_agreement_on_table2(self):
        report = run_kopt_validation(mc_samples=50_000)
        assert report.matches
        assert 10.0 < report.k_closed_form < 13.0

    def test_lemma1_agreement(self):
        report = run_kopt_validation(mc_samples=50_000)
        assert report.lemma1_monte_carlo == pytest.approx(
            report.lemma1_analytic, rel=0.02
        )

    def test_render(self):
        report = run_kopt_validation(mc_samples=10_000)
        assert "Theorem 1" in report.render()


class TestComplexityDriver:
    def test_selection_scaling_rows(self):
        rows = measure_selection_scaling(n_values=(30, 60), rounds=4)
        assert len(rows) == 2
        assert all(r.seconds > 0 for r in rows)

    def test_qlearning_cost_identity(self):
        """Lemma 3: exactly k+1 Q evaluations per V update."""
        row = measure_qlearning_updates()
        assert row.evaluations_per_update == pytest.approx(row.k + 1)

    def test_render(self):
        rows = measure_selection_scaling(n_values=(30,), rounds=2)
        q = measure_qlearning_updates()
        text = render_complexity_report(rows, q)
        assert "Lemma 2" in text and "Lemma 3" in text


class TestAblationDriver:
    def test_small_ablation_runs(self):
        variants = {
            k: v
            for k, v in ABLATION_VARIANTS.items()
            if k in ("qlec (full)", "direct")
        }
        rows = run_ablation(variants, seeds=(0,), rounds=3)
        assert [r["variant"] for r in rows] == ["qlec (full)", "direct"]
        assert all(0.0 <= r["pdr"] <= 1.0 for r in rows)

    def test_render(self):
        variants = {"direct": ABLATION_VARIANTS["direct"]}
        text = render_ablation(
            run_ablation(variants, mean_interarrival=2.0, seeds=(0,), rounds=2)
        )
        assert "ablation" in text.lower()
        assert "lambda = 2.0" in text
