"""Hierarchical span tracing: run → round → phase → kernel call.

The aggregate counters of :mod:`~repro.telemetry.registry` answer
*how much* — this module answers *when* and *inside what*.  A
:class:`SpanTracer` records a bounded in-memory stream of events:

* **spans** — intervals with an identity, a parent, and a category:
  the whole ``run``, each ``round``, the lap-clock ``phase`` segments
  inside it (emitted by :meth:`Telemetry.lap
  <repro.telemetry.timers.Telemetry.lap>`, whose clock also feeds the
  ``time/phase/*`` counters), and each ``kernel`` backend invocation
  (recorded by :class:`~repro.kernels.profiling.ProfiledBackend`);
* **instants** — zero-duration marks: one ``round/end`` per round
  (the round's :meth:`~repro.simulation.metrics.RoundStats.row` plus
  its heads and residual energy), one ``routing/path`` per uplink
  chain an active router walks, fault-injection/recovery events
  (emitted by the injector's accounting hook, so they land inside the
  round span that applied them) and periodic memory samples.

The stream is the run's one trace: what a round did, where its time
went and which heads relayed whose traffic all live in it.

Span *identities* are deterministic: IDs are a sequential counter in
event order, and the engine's event order is a pure function of the
run (only the ``ts``/``dur`` wall-clock fields vary between two runs
of the same cell).  The buffer is bounded (:attr:`SpanTracer.max_events`);
overflow drops new events and counts them in :attr:`SpanTracer.dropped`
rather than growing without limit on a million-node run.

Exports:

* :meth:`SpanTracer.write_jsonl` — manifest-headed JSONL (``span`` /
  ``instant`` rows plus a ``trace-summary`` trailer), schema-linted by
  ``scripts/check_docs_jsonl.py`` like every other artifact format;
* :meth:`SpanTracer.write_chrome` — Chrome trace-event JSON loadable
  in Perfetto / ``chrome://tracing`` (``ph: "X"`` complete spans and
  ``ph: "i"`` instants, microsecond timestamps).

A tracer is a sink of the engine's one instrument handle
(:attr:`Telemetry.spans <repro.telemetry.timers.Telemetry.spans>`):
without one the engine holds the :data:`~repro.telemetry.NULL`
singleton, no hook ever touches a simulation RNG stream, and the
disabled-path cost is covered by the <2 % overhead guard in
``benchmarks/test_bench_micro.py``.  The deterministic part of a
trace (the :meth:`SpanTracer.summary` name counts) merges
order-insensitively via :func:`merge_trace_summaries`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from time import perf_counter

from .jsonl import atomic_write_text, read_jsonl_tolerant
from .manifest import MANIFEST_KIND

__all__ = [
    "INSTANT_KIND",
    "SPAN_KIND",
    "SpanTracer",
    "TRACE_SCHEMA",
    "TRACE_SUMMARY_KIND",
    "merge_trace_summaries",
    "read_trace_jsonl",
    "rss_mb",
]

#: Record discriminators inside a trace JSONL dump (after the manifest).
SPAN_KIND = "span"
INSTANT_KIND = "instant"
TRACE_SUMMARY_KIND = "trace-summary"

#: Bump when span/instant/summary keys change incompatibly.
TRACE_SCHEMA = 1

#: Default event-buffer bound; ~55 MB of dicts at the default, far
#: above a chaos scenario (< 10k events) but a hard ceiling for a
#: long large-N run with kernel spans on.
DEFAULT_MAX_EVENTS = 200_000


def rss_mb() -> float | None:
    """Resident-set size of this process in MiB, or None off-Linux.

    Reads ``/proc/self/statm`` (no dependencies); falls back to
    ``getrusage`` peak RSS.  Wall-clock-adjacent by nature — values
    recorded from it live under the ``prof/rss`` / ``mem/`` prefixes
    that :func:`~repro.telemetry.registry.deterministic_view` strips.
    """
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except Exception:  # pragma: no cover - exotic platforms
        return None


class SpanTracer:
    """Records hierarchical spans and instants into a bounded buffer.

    Parenting: :meth:`begin`/:meth:`end` maintain an explicit stack
    (run, round); :meth:`phase` emits a retrospective *phase* span for
    an interval the caller's lap clock measured, parented to the stack
    top; :meth:`kernel` spans are re-parented to the phase span that
    closes over them (the next ``phase`` call), since a phase span only
    comes into existence *after* the kernels it contains have run.
    """

    def __init__(
        self,
        max_events: int = DEFAULT_MAX_EVENTS,
        manifest: dict | None = None,
    ) -> None:
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.max_events = int(max_events)
        #: Run manifest emitted as the JSONL header (the engine fills
        #: this in when it builds its own manifest).
        self.manifest = manifest
        self.events: list[dict] = []
        self.dropped = 0
        self._next_id = 1
        #: Open spans: (id, name, cat, t0, parent_id, args).
        self._stack: list[tuple] = []
        #: Kernel events awaiting re-parent to the next phase span.
        self._pending: list[dict] = []
        self._epoch: float | None = None

    # -- clock ---------------------------------------------------------
    @staticmethod
    def now() -> float:
        return perf_counter()

    def _ts(self, t: float) -> float:
        if self._epoch is None:
            self._epoch = t
        return t - self._epoch

    def _emit(self, ev: dict) -> dict | None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return None
        self.events.append(ev)
        return ev

    def _parent(self) -> int | None:
        return self._stack[-1][0] if self._stack else None

    # -- explicit spans (run, round) -----------------------------------
    def begin(self, name: str, cat: str = "span", args: dict | None = None) -> int:
        """Open a span; returns its deterministic ID."""
        t0 = self.now()
        if self._epoch is None:
            self._epoch = t0
        sid = self._next_id
        self._next_id += 1
        # The span being opened is not yet on the stack, so the current
        # top is its parent.
        self._stack.append((sid, name, cat, t0, self._parent(), args))
        return sid

    def end(self) -> int:
        """Close the innermost open span; returns its ID."""
        if not self._stack:
            raise RuntimeError("SpanTracer.end() with no open span")
        now = self.now()
        sid, name, cat, t0, parent, args = self._stack.pop()
        ev = {
            "kind": SPAN_KIND,
            "id": sid,
            "parent": parent,
            "name": name,
            "cat": cat,
            "ts": self._ts(t0),
            "dur": now - t0,
        }
        if args:
            ev["args"] = dict(args)
        self._emit(ev)
        return sid

    # -- lap-clock phase spans -----------------------------------------
    def phase(self, name: str, t0: float, t1: float) -> None:
        """Emit a phase span for the lap ``[t0, t1]`` (``perf_counter``
        readings taken by :meth:`Telemetry.lap
        <repro.telemetry.timers.Telemetry.lap>`)."""
        sid = self._next_id
        self._next_id += 1
        ev = {
            "kind": SPAN_KIND,
            "id": sid,
            "parent": self._parent(),
            "name": name,
            "cat": "phase",
            "ts": self._ts(t0),
            "dur": t1 - t0,
        }
        self._emit(ev)
        # Kernel calls since the previous marker ran *inside* this
        # phase segment; adopt them now that the segment has an ID.
        for kev in self._pending:
            kev["parent"] = sid
        self._pending.clear()

    # -- kernel + instant hooks ----------------------------------------
    def kernel(
        self, method: str, t0: float, dur: float, elements: int, nbytes: int
    ) -> None:
        """Record one kernel-backend invocation (called by
        :class:`~repro.kernels.profiling.ProfiledBackend`)."""
        if self._epoch is None:
            self._epoch = t0
        sid = self._next_id
        self._next_id += 1
        ev = {
            "kind": SPAN_KIND,
            "id": sid,
            "parent": self._parent(),
            "name": method,
            "cat": "kernel",
            "ts": self._ts(t0),
            "dur": dur,
            "args": {"elements": int(elements), "bytes": int(nbytes)},
        }
        emitted = self._emit(ev)
        if emitted is not None:
            self._pending.append(emitted)

    def instant(self, name: str, cat: str = "event", args: dict | None = None) -> None:
        """Record a zero-duration mark parented to the open span."""
        t = self.now()
        if self._epoch is None:
            self._epoch = t
        sid = self._next_id
        self._next_id += 1
        ev = {
            "kind": INSTANT_KIND,
            "id": sid,
            "parent": self._parent(),
            "name": name,
            "cat": cat,
            "ts": self._ts(t),
        }
        if args:
            ev["args"] = dict(args)
        self._emit(ev)

    # -- export --------------------------------------------------------
    def summary(self) -> dict:
        """Deterministic trailer: event counts by span/instant name.

        Everything here is structure (a pure function of the run), so
        summaries from two shards merge order-insensitively
        (:func:`merge_trace_summaries`) — unlike ``ts``/``dur``.
        """
        spans: dict[str, int] = {}
        instants: dict[str, int] = {}
        for ev in self.events:
            d = spans if ev["kind"] == SPAN_KIND else instants
            d[ev["name"]] = d.get(ev["name"], 0) + 1
        return {
            "kind": TRACE_SUMMARY_KIND,
            "schema": TRACE_SCHEMA,
            "events": len(self.events),
            "dropped": self.dropped,
            "spans_by_name": {k: spans[k] for k in sorted(spans)},
            "instants_by_name": {k: instants[k] for k in sorted(instants)},
        }

    def to_jsonl(self) -> str:
        lines = []
        if self.manifest is not None:
            lines.append(json.dumps(self.manifest, sort_keys=True))
        lines.extend(json.dumps(ev, sort_keys=True) for ev in self.events)
        lines.append(json.dumps(self.summary(), sort_keys=True))
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path) -> Path:
        """Atomically write the manifest-headed JSONL span dump."""
        return atomic_write_text(path, self.to_jsonl())

    def chrome_events(self) -> list[dict]:
        """The event stream in Chrome trace-event form.

        ``ph: "X"`` complete spans and ``ph: "i"`` thread-scoped
        instants, timestamps/durations in microseconds, sorted by
        ``ts`` (monotone per thread — everything runs on tid 0, which
        is also what lets Perfetto nest spans by time containment).
        """
        meta = [
            {
                "ph": "M", "pid": 0, "tid": 0, "ts": 0,
                "name": "process_name", "args": {"name": "repro"},
            },
            {
                "ph": "M", "pid": 0, "tid": 0, "ts": 0,
                "name": "thread_name", "args": {"name": "engine"},
            },
        ]
        out = []
        for ev in self.events:
            args = dict(ev.get("args") or {})
            args["id"] = ev["id"]
            if ev["parent"] is not None:
                args["parent"] = ev["parent"]
            ce = {
                "pid": 0,
                "tid": 0,
                "name": ev["name"],
                "cat": ev["cat"],
                "ts": round(ev["ts"] * 1e6, 3),
                "args": args,
            }
            if ev["kind"] == SPAN_KIND:
                ce["ph"] = "X"
                ce["dur"] = round(ev["dur"] * 1e6, 3)
            else:
                ce["ph"] = "i"
                ce["s"] = "t"
            out.append(ce)
        out.sort(key=lambda e: e["ts"])
        return meta + out

    def to_chrome(self) -> str:
        return json.dumps(
            {"traceEvents": self.chrome_events(), "displayTimeUnit": "ms"}
        )

    def write_chrome(self, path) -> Path:
        """Atomically write the Perfetto-loadable Chrome trace JSON."""
        return atomic_write_text(path, self.to_chrome() + "\n")


def merge_trace_summaries(*summaries: dict) -> dict:
    """Fold ``trace-summary`` records order-insensitively.

    Commutative and associative with the empty summary as identity —
    the same contract as :func:`~repro.telemetry.registry.merge_snapshots`,
    so per-shard deterministic trace structure folds fleet-wide.
    """
    events = dropped = 0
    spans: dict[str, int] = {}
    instants: dict[str, int] = {}
    for s in summaries:
        events += s.get("events", 0)
        dropped += s.get("dropped", 0)
        for k, v in s.get("spans_by_name", {}).items():
            spans[k] = spans.get(k, 0) + v
        for k, v in s.get("instants_by_name", {}).items():
            instants[k] = instants.get(k, 0) + v
    return {
        "kind": TRACE_SUMMARY_KIND,
        "schema": TRACE_SCHEMA,
        "events": events,
        "dropped": dropped,
        "spans_by_name": {k: spans[k] for k in sorted(spans)},
        "instants_by_name": {k: instants[k] for k in sorted(instants)},
    }


def read_trace_jsonl(path) -> dict:
    """Parse a span dump back into ``{"manifest", "events", "summary"}``.

    Reads through the shared tolerant JSONL reader
    (:func:`repro.telemetry.jsonl.read_jsonl_tolerant`), so a torn
    final line (crash mid-write) — or a truncated compressed tail — is
    dropped like in every other artifact reader in the repo; a
    manifest anywhere but record one is an error.
    """
    manifest = None
    summary = None
    events: list[dict] = []
    for i, obj in enumerate(read_jsonl_tolerant(path)):
        kind = obj.get("kind")
        if kind == MANIFEST_KIND:
            if i != 0:
                raise ValueError(f"{path}: manifest must be the first line")
            manifest = obj
        elif kind in (SPAN_KIND, INSTANT_KIND):
            events.append(obj)
        elif kind == TRACE_SUMMARY_KIND:
            summary = obj
        else:
            raise ValueError(
                f"{path}: unknown record kind {kind!r} at record {i + 1}"
            )
    return {"manifest": manifest, "events": events, "summary": summary}

