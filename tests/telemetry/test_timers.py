"""Tests for the lap-clock phase timers and the null telemetry object."""

from repro.telemetry import NULL, NullTelemetry, Telemetry


class TestTelemetry:
    def test_laps_partition_elapsed_time(self):
        tel = Telemetry()
        t0 = tel.now()
        tel.lap_start()
        for _ in range(100):
            tel.lap("a")
            tel.lap("b")
        elapsed = tel.now() - t0
        snap = tel.snapshot()
        attributed = snap["time/phase/a"]["value"] + snap["time/phase/b"]["value"]
        assert attributed <= elapsed
        assert attributed >= 0.0

    def test_lap_creates_prefixed_counter(self):
        tel = Telemetry()
        tel.lap_start()
        tel.lap("setup")
        assert "time/phase/setup" in tel.registry

    def test_phase_cache_reuses_counter(self):
        tel = Telemetry()
        tel.lap_start()
        tel.lap("x")
        c = tel.registry.get("time/phase/x")
        tel.lap("x")
        assert tel.registry.get("time/phase/x") is c
        assert c.value >= 0.0

    def test_span_times_block(self):
        tel = Telemetry()
        with tel.span("rl/train"):
            pass
        snap = tel.snapshot()
        assert snap["time/rl/train"]["value"] >= 0.0

    def test_registry_passthrough(self):
        tel = Telemetry()
        tel.counter("c").add(2)
        tel.gauge("g").observe(1.0)
        tel.histogram("h", (0, 1)).observe(0.5)
        snap = tel.snapshot()
        assert snap["c"]["value"] == 2
        assert snap["g"]["count"] == 1
        assert snap["h"]["count"] == 1

    def test_merge_folds_registries(self):
        a, b = Telemetry(), Telemetry()
        a.counter("x").add(1)
        b.counter("x").add(2)
        a.merge(b)
        assert a.snapshot()["x"]["value"] == 3

    def test_enabled_flag(self):
        assert Telemetry().enabled is True


class TestNullTelemetry:
    def test_singleton_disabled(self):
        assert NULL.enabled is False
        assert isinstance(NULL, NullTelemetry)

    def test_all_hooks_are_noops(self):
        NULL.lap_start()
        NULL.lap("anything")
        with NULL.span("anything"):
            pass
        assert NULL.now() == 0.0
        assert NULL.snapshot() == {}

    def test_no_registry(self):
        assert NULL.registry is None
        assert NULL.spans is None
