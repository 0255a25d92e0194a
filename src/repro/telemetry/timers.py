"""Phase timers: wall-clock attribution for the slot pipeline.

The engine's hot loop cannot afford context-manager churn per phase,
so timing uses a *lap clock*: :meth:`Telemetry.lap_start` arms the
clock and every :meth:`Telemetry.lap` call reads ``perf_counter()``
once and attributes the time elapsed since the previous marker to a
named phase.  Markers placed contiguously over a round partition its
wall time, so per-phase totals sum to ~100 % of the round — the
property the observability acceptance check relies on.

A :class:`Telemetry` handle is the engine's only instrument.  It feeds
up to two sinks from that one clock: its metric registry (phase
counters ``time/phase/<name>``) and an attached
:class:`~repro.telemetry.trace.SpanTracer` (one ``phase`` span per
lap).  Both sinks see the same interval, so each phase counter equals
the sum of that phase's span durations exactly.

When nothing is attached the engine holds the shared :data:`NULL`
singleton instead; every hook on it is a ``pass``-body method, so the
disabled cost of an instrumented phase is one attribute lookup plus
one no-op call (nanoseconds against a multi-millisecond round — see
the guard in ``benchmarks/test_bench_micro.py``).  Crucially no hook
ever touches a simulation RNG stream, so instrumenting a run cannot
perturb it: golden traces and the scalar/batched equivalence stay
bit-identical.
"""

from __future__ import annotations

from time import perf_counter

from .registry import Counter, Gauge, Histogram, MetricRegistry

__all__ = ["Telemetry", "NullTelemetry", "NULL"]


class _Span:
    """Context manager timing one block into a ``time/...`` counter."""

    __slots__ = ("_counter", "_t0")

    def __init__(self, counter: Counter) -> None:
        self._counter = counter
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._counter.add(perf_counter() - self._t0)


class _NullSpan:
    """Shared do-nothing span returned by :class:`NullTelemetry`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Telemetry:
    """Live instrumentation handle: one lap clock and its two sinks,
    :attr:`registry` (``None`` on a trace-only handle) and
    :attr:`spans`.

    Pass one to :class:`~repro.simulation.engine.SimulationEngine`
    (or ``run_cell(..., telemetry=True)``) to collect phase timings
    and pipeline counters; read them back with :meth:`snapshot`.
    """

    enabled = True

    def __init__(
        self,
        registry: MetricRegistry | None = None,
        profile_kernels: bool = False,
    ) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        #: Opt-in kernel profiling: when True the engine wraps its
        #: backend in :class:`~repro.kernels.profiling.ProfiledBackend`
        #: so per-kernel ``prof/kernels/*`` counters and
        #: ``time/kernel/*`` wall-clock accumulate here.  Opt-in
        #: because kernel *call counts* differ between the scalar and
        #: batched engine paths — with profiling off, their
        #: deterministic views stay exactly equal.
        self.profile_kernels = bool(profile_kernels)
        #: Span sink (a :class:`~repro.telemetry.trace.SpanTracer`),
        #: attached by the engine from its ``tracer=`` argument.
        self.spans = None
        self._t_last = 0.0
        #: Phase-name -> counter cache so the hot path skips the
        #: registry dict and string concatenation after first use.
        self._phase_cache: dict[str, Counter] = {}

    # -- clock ---------------------------------------------------------
    @staticmethod
    def now() -> float:
        return perf_counter()

    def lap_start(self) -> None:
        """Arm the lap clock (start of a round)."""
        self._t_last = perf_counter()

    def lap(self, phase: str) -> None:
        """Attribute time since the previous marker to ``phase`` in
        every attached sink."""
        now = perf_counter()
        t_last = self._t_last
        self._t_last = now
        if self.registry is not None:
            c = self._phase_cache.get(phase)
            if c is None:
                c = self.registry.counter("time/phase/" + phase)
                self._phase_cache[phase] = c
            c.add(now - t_last)
        if self.spans is not None:
            self.spans.phase(phase, t_last, now)

    def span(self, name: str) -> _Span:
        """Time a ``with`` block into counter ``time/<name>``."""
        return _Span(self.registry.counter("time/" + name))

    # -- registry passthrough ------------------------------------------
    def counter(self, name: str) -> Counter:
        return self.registry.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.registry.gauge(name)

    def histogram(self, name: str, edges) -> Histogram:
        return self.registry.histogram(name, edges)

    def snapshot(self) -> dict:
        return self.registry.snapshot()

    def merge(self, other: "Telemetry") -> "Telemetry":
        self.registry.merge(other.registry)
        return self


class NullTelemetry:
    """Disabled telemetry: every hook is a no-op.

    The engine unconditionally calls ``lap_start``/``lap`` on its
    telemetry handle; holding this singleton instead of branching keeps
    the instrumented code single-path while costing only a no-op call
    per marker when nothing is attached.  Code that would *allocate*
    (round-end counter rollups, spans) must still guard on its sink
    (``registry`` / ``spans`` is not None).
    """

    enabled = False
    registry = None
    spans = None
    profile_kernels = False

    def lap_start(self) -> None:
        pass

    def lap(self, phase: str) -> None:
        pass

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    @staticmethod
    def now() -> float:
        return 0.0

    def snapshot(self) -> dict:
        return {}


#: Shared disabled-instrument singleton.
NULL = NullTelemetry()
