"""Tests for the protocol-comparison sweep machinery."""

import pytest

from repro.analysis.sweep import PROTOCOLS, run_cell, sweep_protocols
from repro.config import paper_config
from repro.simulation import run_simulation

ABLATION_NAMES = sorted(n for n in PROTOCOLS if n.startswith("qlec/"))


class TestRegistry:
    def test_known_protocols(self):
        for name in ("qlec", "fcm", "kmeans", "leach", "deec", "direct"):
            assert name in PROTOCOLS

    def test_factories_build_fresh_instances(self):
        a = PROTOCOLS["qlec"]()
        b = PROTOCOLS["qlec"]()
        assert a is not b


class TestRunCell:
    def test_summary_shape(self):
        row = run_cell("direct", 8.0, seed=0, rounds=3)
        assert row["protocol"] == "direct"
        assert row["lambda"] == 8.0
        assert 0.0 <= row["pdr"] <= 1.0

    def test_registry_name_overrides_class_name(self):
        row = run_cell("kmeans-adaptive", 8.0, seed=0, rounds=3)
        assert row["protocol"] == "kmeans-adaptive"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(KeyError):
            run_cell("nope", 8.0, seed=0)

    @pytest.mark.parametrize("name", ABLATION_NAMES)
    def test_ablation_cell_is_a_plain_run(self, name):
        """A registered ablation variant's sweep cell is the run the
        hand-rolled ablation loop used to make."""
        row = run_cell(name, 4.0, seed=0, rounds=3)
        want = run_simulation(
            paper_config(mean_interarrival=4.0, seed=0, rounds=3),
            PROTOCOLS[name](),
        ).summary()
        assert row == {**want, "protocol": name}


class TestSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return sweep_protocols(
            protocols=("direct", "kmeans"),
            lambdas=(4.0, 16.0),
            seeds=(0, 1),
            rounds=3,
            serial=True,
        )

    def test_grid_size(self, sweep):
        assert len(sweep.rows) == 2 * 2 * 2

    def test_filtered(self, sweep):
        rows = sweep.filtered(protocol="direct")
        assert len(rows) == 4
        assert all(r["protocol"] == "direct" for r in rows)

    def test_aggregate_means_over_seeds(self, sweep):
        rows = sweep.filtered(protocol="direct", **{"lambda": 4.0})
        expected = sum(r["pdr"] for r in rows) / len(rows)
        assert sweep.aggregate("pdr", "direct", 4.0) == pytest.approx(expected)

    def test_aggregate_missing_raises(self, sweep):
        with pytest.raises(KeyError):
            sweep.aggregate("pdr", "qlec", 4.0)

    def test_series_shape(self, sweep):
        s = sweep.series("pdr", ("direct", "kmeans"), (4.0, 16.0))
        assert set(s) == {"direct", "kmeans"}
        assert len(s["direct"]) == 2

    def test_failed_cell_raises(self):
        with pytest.raises(RuntimeError, match="1 sweep cell.*nope"):
            sweep_protocols(
                protocols=("nope",), lambdas=(8.0,), seeds=(0,), rounds=2,
                serial=True,
            )

    def test_parallel_matches_serial(self):
        kwargs = dict(
            protocols=("direct",), lambdas=(8.0,), seeds=(0, 1, 2), rounds=2
        )
        serial = sweep_protocols(serial=True, **kwargs)
        parallel = sweep_protocols(max_workers=2, **kwargs)
        assert serial.rows == parallel.rows


class TestSweepTelemetry:
    kwargs = dict(
        protocols=("direct", "kmeans"), lambdas=(8.0,), seeds=(0, 1),
        rounds=2, telemetry=True,
    )

    def test_cell_snapshot_attached(self):
        row = run_cell("direct", 8.0, seed=0, rounds=2, telemetry=True)
        snap = row["telemetry"]
        assert snap["packets/generated"]["value"] == row["generated"]

    def test_no_snapshot_by_default(self):
        row = run_cell("direct", 8.0, seed=0, rounds=2)
        assert "telemetry" not in row

    def test_merged_snapshot_on_result(self):
        sweep = sweep_protocols(serial=True, **self.kwargs)
        assert sweep.telemetry is not None
        assert all("telemetry" not in r for r in sweep.rows)
        total = sum(r["generated"] for r in sweep.rows)
        assert sweep.telemetry["packets/generated"]["value"] == total

    def test_disabled_leaves_none(self):
        sweep = sweep_protocols(
            protocols=("direct",), lambdas=(8.0,), seeds=(0,), rounds=2,
            serial=True,
        )
        assert sweep.telemetry is None

    def test_pool_merge_equals_serial_merge(self):
        """The acceptance check: a 2-worker pool sweep and a serial
        sweep agree exactly on every deterministic merged metric."""
        from repro.telemetry import deterministic_view

        serial = sweep_protocols(serial=True, **self.kwargs)
        pooled = sweep_protocols(max_workers=2, **self.kwargs)
        assert deterministic_view(serial.telemetry) == deterministic_view(
            pooled.telemetry
        )
