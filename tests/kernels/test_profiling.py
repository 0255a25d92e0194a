"""Tests for the kernel-profiling wrapper (repro.kernels.profiling)."""

import numpy as np
import pytest

from repro.core import QLECProtocol
from repro.kernels import NumpyBackend, ProfiledBackend
from repro.simulation import run_simulation
from repro.telemetry import (
    MetricRegistry,
    SpanTracer,
    Telemetry,
    deterministic_view,
)
from tests.conftest import make_config

RNG = np.random.default_rng(42)


@pytest.fixture
def bare():
    return NumpyBackend()


@pytest.fixture
def profiled(bare):
    return ProfiledBackend(bare, registry=MetricRegistry())


class TestDelegation:
    """Every method must be numerically invisible — bit-identical to
    the bare backend it wraps."""

    def test_identity_proxied(self, bare, profiled):
        assert profiled.name == bare.name

    def test_distance_block(self, bare, profiled):
        src, dst = RNG.random((5, 3)), RNG.random((7, 3))
        np.testing.assert_array_equal(
            profiled.distance_block(src, dst), bare.distance_block(src, dst)
        )

    def test_distance_block_blocked_counts_once(self, bare, profiled):
        src, dst = RNG.random((64, 3)), RNG.random((64, 3))
        out = profiled.distance_block_blocked(src, dst, max_block_mb=0.01)
        np.testing.assert_array_equal(out, bare.distance_block(src, dst))
        snap = profiled.registry.snapshot()
        # The whole chunked call delegates: one engine-level call, one
        # count — not one per internal chunk.
        assert snap["prof/kernels/distance_block/calls"]["value"] == 1

    def test_bernoulli(self, bare, profiled):
        p, u = RNG.random(20), RNG.random(20)
        np.testing.assert_array_equal(
            profiled.bernoulli(p, u), bare.bernoulli(p, u)
        )

    def test_grouped_discharge(self, bare, profiled):
        n = 12
        res_a = RNG.random(n) + 0.5
        res_b = res_a.copy()
        alive_a = np.ones(n, dtype=bool)
        alive_b = alive_a.copy()
        idx = np.array([0, 3, 3, 7], dtype=np.int64)
        amounts = np.full(4, 0.1)
        out_a = profiled.grouped_discharge(res_a, alive_a, idx, amounts, 0.0)
        out_b = bare.grouped_discharge(res_b, alive_b, idx, amounts, 0.0)
        np.testing.assert_array_equal(out_a, out_b)
        np.testing.assert_array_equal(res_a, res_b)


class TestCounters:
    def test_counters_accumulate(self, profiled):
        src, dst = RNG.random((4, 3)), RNG.random((5, 3))
        profiled.distance_block(src, dst)
        profiled.distance_block(src, dst)
        snap = profiled.registry.snapshot()
        assert snap["prof/kernels/distance_block/calls"]["value"] == 2
        assert snap["prof/kernels/distance_block/elements"]["value"] == 2 * 20
        assert snap["prof/kernels/distance_block/bytes"]["value"] > 0
        assert snap["time/kernel/distance_block"]["value"] > 0

    def test_no_registry_no_tracer_still_delegates(self, bare):
        profiled = ProfiledBackend(bare)
        src, dst = RNG.random((3, 3)), RNG.random((3, 3))
        np.testing.assert_array_equal(
            profiled.distance_block(src, dst), bare.distance_block(src, dst)
        )

    def test_tracer_records_kernel_spans(self, bare):
        trc = SpanTracer()
        profiled = ProfiledBackend(bare, tracer=trc)
        profiled.bernoulli(RNG.random(4), RNG.random(4))
        kernel = next(ev for ev in trc.events if ev["cat"] == "kernel")
        assert kernel["name"] == "bernoulli"
        assert kernel["args"]["elements"] == 4


class TestEngineProfiling:
    def test_profile_kernels_opt_in(self):
        tel = Telemetry(profile_kernels=True)
        result = run_simulation(make_config(), QLECProtocol(), telemetry=tel)
        snap = tel.snapshot()
        prof = [k for k in snap if k.startswith("prof/kernels/")]
        assert prof, "no kernel counters collected"
        assert any(k.startswith("time/kernel/") for k in snap)
        # Profiling must not perturb the simulation.
        plain = run_simulation(make_config(), QLECProtocol())
        assert result.total_energy == plain.total_energy
        assert result.packets == plain.packets

    def test_default_telemetry_does_not_profile(self):
        tel = Telemetry()
        run_simulation(make_config(), QLECProtocol(), telemetry=tel)
        assert not any(
            k.startswith("prof/kernels/") for k in tel.snapshot()
        )

    def test_deterministic_view_keeps_prof_kernels(self):
        tel = Telemetry(profile_kernels=True)
        run_simulation(make_config(), QLECProtocol(), telemetry=tel)
        view = deterministic_view(tel.snapshot())
        assert any(k.startswith("prof/kernels/") for k in view)
        assert not any(
            k.startswith(("time/", "mem/", "prof/rss")) for k in view
        )

    def test_prof_counters_deterministic_across_runs(self):
        views = []
        for _ in range(2):
            tel = Telemetry(profile_kernels=True)
            run_simulation(make_config(), QLECProtocol(), telemetry=tel)
            views.append(deterministic_view(tel.snapshot()))
        assert views[0] == views[1]
