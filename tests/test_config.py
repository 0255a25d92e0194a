"""Tests for repro.config: validation, Table-2 values, derived quantities."""

import dataclasses
import math

import pytest

from repro.config import (
    DeploymentConfig,
    QLearningConfig,
    QueueConfig,
    RadioConfig,
    SimulationConfig,
    TrafficConfig,
    apply_overrides,
    paper_config,
)


class TestRadioConfig:
    def test_defaults_match_table2(self):
        r = RadioConfig()
        assert r.eps_fs == pytest.approx(10e-12)
        assert r.eps_mp == pytest.approx(0.0013e-12)

    def test_d0_formula(self):
        r = RadioConfig()
        assert r.d0 == pytest.approx(math.sqrt(10.0 / 0.0013))

    def test_d0_scales_with_constants(self):
        r = RadioConfig(eps_fs=4e-12, eps_mp=1e-12)
        assert r.d0 == pytest.approx(2.0)

    @pytest.mark.parametrize("field", ["e_elec", "e_da", "eps_fs", "eps_mp"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError):
            RadioConfig(**{field: 0.0})


class TestQLearningConfig:
    def test_table2_weights(self):
        q = QLearningConfig()
        assert (q.alpha1, q.alpha2, q.beta1, q.beta2) == (0.05, 1.05, 0.05, 1.05)
        assert q.gamma == 0.95

    def test_gamma_bounds(self):
        with pytest.raises(ValueError):
            QLearningConfig(gamma=1.5)
        with pytest.raises(ValueError):
            QLearningConfig(gamma=-0.1)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            QLearningConfig(alpha1=-0.1)

    def test_tol_positive(self):
        with pytest.raises(ValueError):
            QLearningConfig(tol=0.0)


class TestTrafficConfig:
    def test_rate_is_reciprocal_of_lambda(self):
        t = TrafficConfig(mean_interarrival=8.0)
        assert t.rate_per_slot == pytest.approx(0.125)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            TrafficConfig(mean_interarrival=0.0)

    def test_rejects_zero_slots(self):
        with pytest.raises(ValueError):
            TrafficConfig(slots_per_round=0)


class TestDeploymentConfig:
    def test_bs_defaults_to_cube_centre(self):
        d = DeploymentConfig(side=100.0)
        assert d.bs == (50.0, 50.0, 50.0)

    def test_explicit_bs_position(self):
        d = DeploymentConfig(bs_position=(1.0, 2.0, 3.0))
        assert d.bs == (1.0, 2.0, 3.0)

    def test_death_line_must_be_below_initial(self):
        with pytest.raises(ValueError):
            DeploymentConfig(initial_energy=1.0, death_line=1.0)

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            DeploymentConfig(n_nodes=0)


class TestQueueConfig:
    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            QueueConfig(capacity=-1)

    def test_rejects_zero_service(self):
        with pytest.raises(ValueError):
            QueueConfig(service_rate=0)

    def test_rejects_negative_bs_capacity(self):
        with pytest.raises(ValueError):
            QueueConfig(bs_capacity_per_slot=-1)


class TestSimulationConfig:
    def test_compression_ratio_bounds(self):
        with pytest.raises(ValueError):
            SimulationConfig(compression_ratio=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(compression_ratio=1.5)

    def test_replace_returns_modified_copy(self):
        c = SimulationConfig(rounds=10)
        c2 = c.replace(rounds=33)
        assert c.rounds == 10 and c2.rounds == 33

    def test_estimator_alpha_bounds(self):
        with pytest.raises(ValueError):
            SimulationConfig(estimator_alpha=0.0)

    def test_max_retries_nonnegative(self):
        with pytest.raises(ValueError):
            SimulationConfig(max_retries=-1)

    def test_frozen(self):
        c = SimulationConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.rounds = 5

    def test_backend_default_is_auto(self):
        assert SimulationConfig().backend == "auto"

    def test_backend_rejects_non_string(self):
        with pytest.raises(ValueError):
            SimulationConfig(backend="")

    def test_backend_accepts_only_the_choices(self):
        from repro.config import BACKEND_CHOICES

        assert BACKEND_CHOICES == ("auto", "numpy")
        for name in BACKEND_CHOICES:
            assert SimulationConfig(backend=name).backend == name
        with pytest.raises(ValueError, match="backend must be one of"):
            SimulationConfig(backend="numba")

    def test_equivalence_is_bitwise_only(self):
        assert SimulationConfig().equivalence == "bitwise"
        with pytest.raises(ValueError, match="equivalence"):
            SimulationConfig(equivalence="statistical")
        with pytest.raises(ValueError):
            SimulationConfig(backend=None)  # type: ignore[arg-type]

    def test_backend_is_part_of_fingerprint(self):
        from repro.telemetry import config_fingerprint

        a = SimulationConfig(backend="numpy")
        b = SimulationConfig(backend="auto")
        assert config_fingerprint(a) != config_fingerprint(b)


class TestPaperConfig:
    def test_headline_values(self):
        c = paper_config()
        assert c.deployment.n_nodes == 100
        assert c.deployment.side == 200.0
        assert c.n_clusters == 5
        assert c.rounds == 20
        assert c.compression_ratio == 0.5
        assert c.qlearning.gamma == 0.95

    def test_lambda_passthrough(self):
        assert paper_config(mean_interarrival=2.5).traffic.mean_interarrival == 2.5

    def test_literal_table2_energy_accepted(self):
        assert paper_config(initial_energy=5.0).deployment.initial_energy == 5.0


class TestApplyOverrides:
    def test_nested_merge_keeps_unnamed_fields(self):
        base = paper_config(seed=3)
        cfg = apply_overrides(base, {"queue": {"capacity": 32}, "n_clusters": 8})
        assert cfg.queue.capacity == 32
        assert cfg.queue.service_rate == base.queue.service_rate
        assert cfg.n_clusters == 8
        assert cfg.seed == 3

    def test_empty_overrides_are_identity(self):
        base = paper_config()
        assert apply_overrides(base, {}) == base

    def test_json_lists_become_tuples(self):
        cfg = apply_overrides(
            paper_config(), {"deployment": {"bs_position": [1.0, 2.0, 3.0]}}
        )
        assert cfg.deployment.bs_position == (1.0, 2.0, 3.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown QueueConfig key"):
            apply_overrides(paper_config(), {"queue": {"capacty": 32}})

    def test_mapping_into_scalar_field_rejected(self):
        with pytest.raises(ValueError, match="no sub-config"):
            apply_overrides(paper_config(), {"rounds": {"value": 3}})

    def test_validation_still_runs(self):
        with pytest.raises(ValueError, match="rounds"):
            apply_overrides(paper_config(), {"rounds": 0})
