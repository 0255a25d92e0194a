"""The run trace: one ``round/end`` instant per executed round in the
engine's span sink."""

from repro.core import QLECProtocol
from repro.simulation import SimulationEngine
from repro.telemetry import NULL, SpanTracer
from repro.telemetry.trace import INSTANT_KIND, SPAN_KIND
from tests.conftest import make_config

#: Keys a ``round/end`` instant carries beyond ``RoundStats.row()``.
EXTRA_KEYS = {"heads", "min_residual", "total_residual"}


def run_traced(seed=1, rounds=4, **config_kwargs):
    tracer = SpanTracer()
    engine = SimulationEngine(
        make_config(seed=seed, rounds=rounds, **config_kwargs),
        QLECProtocol(),
        tracer=tracer,
    )
    result = engine.run()
    assert tracer.dropped == 0
    return tracer, result


def round_ends(tracer):
    return [ev for ev in tracer.events if ev["name"] == "round/end"]


class TestRoundEndInstants:
    def test_one_instant_per_round_in_its_span(self):
        tracer, result = run_traced(rounds=4)
        ends = round_ends(tracer)
        assert len(ends) == result.rounds_executed == 4
        spans = {ev["id"]: ev for ev in tracer.events if ev["kind"] == SPAN_KIND}
        for i, ev in enumerate(ends):
            assert ev["kind"] == INSTANT_KIND
            parent = spans[ev["parent"]]
            assert parent["name"] == "round"
            assert parent["args"]["round"] == ev["args"]["round"] == i

    def test_args_are_round_row_plus_extras(self):
        tracer, result = run_traced()
        ends = round_ends(tracer)
        for ev, stats in zip(ends, result.per_round, strict=True):
            args = dict(ev["args"])
            extra = {k: args.pop(k) for k in EXTRA_KEYS}
            assert args == stats.row()
            assert len(extra["heads"]) == stats.n_heads
            assert 0 < extra["min_residual"] <= extra["total_residual"]
        assert sum(ev["args"]["generated"] for ev in ends) == (
            result.packets.generated
        )

    def test_one_instant_per_round_on_early_stop(self):
        tracer = SpanTracer()
        engine = SimulationEngine(
            make_config(seed=2, rounds=30, initial_energy=0.02),
            QLECProtocol(),
            stop_on_death=True,
            tracer=tracer,
        )
        result = engine.run()
        assert result.rounds_executed < 30
        assert len(round_ends(tracer)) == result.rounds_executed

    def test_heads_recorded(self):
        tracer, _ = run_traced()
        for ev in round_ends(tracer):
            heads = ev["args"]["heads"]
            assert heads and all(type(h) is int for h in heads)

    def test_residuals_monotone_without_harvesting(self):
        tracer, _ = run_traced()
        totals = [ev["args"]["total_residual"] for ev in round_ends(tracer)]
        assert all(a >= b - 1e-12 for a, b in zip(totals, totals[1:]))

    def test_head_service_counts(self):
        """How many rounds each node led: the rotation fairness view."""
        tracer, result = run_traced(rounds=6)
        counts: dict[int, int] = {}
        for ev in round_ends(tracer):
            for h in ev["args"]["heads"]:
                counts[h] = counts.get(h, 0) + 1
        assert sum(counts.values()) == sum(r.n_heads for r in result.per_round)

    def test_untraced_engine_records_nothing(self):
        engine = SimulationEngine(make_config(seed=2), QLECProtocol())
        assert engine.telemetry is NULL and engine.telemetry.spans is None
        engine.run()
