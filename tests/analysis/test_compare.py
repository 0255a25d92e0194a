"""Tests for paired protocol comparison statistics."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.compare import paired_comparison, win_matrix
from repro.analysis.sweep import SweepResult


def synthetic_sweep():
    """Hand-built sweep: protocol 'a' beats 'b' on pdr at every seed."""
    rows = []
    for seed in range(6):
        for lam in (4.0, 8.0):
            rows.append(
                {"protocol": "a", "seed": seed, "lambda": lam,
                 "pdr": 0.9 + 0.01 * seed}
            )
            rows.append(
                {"protocol": "b", "seed": seed, "lambda": lam,
                 "pdr": 0.8 + 0.01 * seed}
            )
    return SweepResult(rows=rows)


class TestPairedComparison:
    def test_mean_diff_sign(self):
        cmp = paired_comparison(synthetic_sweep(), "pdr", "a", "b")
        assert cmp.mean_diff == pytest.approx(0.1)
        assert cmp.wins == 12 and cmp.losses == 0

    def test_significance_when_consistent(self):
        cmp = paired_comparison(synthetic_sweep(), "pdr", "a", "b")
        assert cmp.significant
        assert cmp.ci_lo > 0.0
        assert cmp.p_value < 0.01

    def test_symmetric(self):
        sweep = synthetic_sweep()
        ab = paired_comparison(sweep, "pdr", "a", "b")
        ba = paired_comparison(sweep, "pdr", "b", "a")
        assert ab.mean_diff == pytest.approx(-ba.mean_diff)

    def test_lambda_filter(self):
        cmp = paired_comparison(
            synthetic_sweep(), "pdr", "a", "b", mean_interarrival=4.0
        )
        assert cmp.n == 6

    def test_ties_counted(self):
        rows = [
            {"protocol": "a", "seed": 0, "lambda": 4.0, "pdr": 0.5},
            {"protocol": "b", "seed": 0, "lambda": 4.0, "pdr": 0.5},
        ]
        cmp = paired_comparison(SweepResult(rows=rows), "pdr", "a", "b")
        assert cmp.ties == 1
        assert cmp.p_value == 1.0
        assert not cmp.significant

    def test_missing_pairs_rejected(self):
        rows = [{"protocol": "a", "seed": 0, "lambda": 4.0, "pdr": 0.5}]
        with pytest.raises(ValueError):
            paired_comparison(SweepResult(rows=rows), "pdr", "a", "b")

    def test_str_contains_essentials(self):
        text = str(paired_comparison(synthetic_sweep(), "pdr", "a", "b"))
        assert "a - b" in text and "pdr" in text


class TestWinMatrix:
    def test_dominance(self):
        matrix = win_matrix(synthetic_sweep(), "pdr", ("a", "b"))
        assert matrix[("a", "b")] == 1.0
        assert matrix[("b", "a")] == 0.0

    def test_lower_is_better_flips(self):
        matrix = win_matrix(
            synthetic_sweep(), "pdr", ("a", "b"), higher_is_better=False
        )
        assert matrix[("a", "b")] == 0.0

    def test_real_sweep_integration(self):
        from repro.analysis import sweep_protocols

        sweep = sweep_protocols(
            protocols=("qlec", "direct"),
            lambdas=(4.0,),
            seeds=(0, 1, 2),
            rounds=3,
            serial=True,
        )
        cmp = paired_comparison(sweep, "pdr", "qlec", "direct")
        assert cmp.n == 3
        assert cmp.mean_diff > 0  # clustering beats flooding the BS


def test_sweep_executor_imports_leave_scipy_out():
    """``scipy.stats`` costs about a second to import; the sweep
    executor and the scheduler that every ``repro sweep`` loads must
    not pay it (the statistics import it on first use)."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.analysis.sweep, repro.parallel.scheduler; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
