"""Mergeable metric primitives: counters, gauges, histograms.

The sweep harness fans independent simulation cells out over a process
pool, so every metric here obeys the same contract as the packet
counters' :meth:`repro.network.packet.PacketCounts.merge`:

* **picklable** — plain attribute state, nothing process-local;
* **order-insensitively mergeable** — ``merge(a, b) == merge(b, a)``
  and merging an empty metric is the identity, so per-worker registries
  fold into one sweep-level view regardless of completion order.

That rules out "last value wins" gauges: the :class:`Gauge` here keeps
the commutative summary (count / total / min / max) of everything it
observed instead of a single latest reading.  Histograms use *fixed*
bucket edges chosen at creation so two workers' histograms are
bucket-wise addable.

Wall-clock metrics are deterministic in *structure* but not in value;
by convention every metric whose value is measured in seconds lives
under the ``time/`` name prefix, and :func:`deterministic_view` strips
that prefix so tests (and the pool-vs-serial equivalence guarantee) can
compare the remaining, fully deterministic counters exactly.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "merge_snapshots",
    "deterministic_view",
]

#: Name prefix for wall-clock metrics, excluded from determinism checks.
TIME_PREFIX = "time/"


class Counter:
    """Monotone additive counter (int or float increments)."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, value: float = 0) -> None:
        self.value = value

    def add(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only move forward")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def copy(self) -> "Counter":
        return Counter(self.value)

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    @classmethod
    def from_snapshot(cls, snap: Mapping) -> "Counter":
        return cls(snap["value"])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Counter):
            return NotImplemented
        return self.value == other.value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.value})"


class Gauge:
    """Commutative observation summary: count, total, min, max.

    A classic "set the current value" gauge cannot merge
    order-insensitively (whose value is current?), so this gauge keeps
    the summary statistics of *every* observation instead; ``mean``
    recovers the typical reading.
    """

    kind = "gauge"
    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_many(self, values) -> None:
        v = np.asarray(values, dtype=np.float64).ravel()
        if v.size == 0:
            return
        self.count += v.size
        self.total += float(v.sum())
        self.min = min(self.min, float(v.min()))
        self.max = max(self.max, float(v.max()))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Gauge") -> None:
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def copy(self) -> "Gauge":
        g = Gauge()
        g.merge(self)
        return g

    def snapshot(self) -> dict:
        if self.count == 0:
            return {"kind": self.kind, "count": 0, "total": 0.0,
                    "min": None, "max": None}
        return {
            "kind": self.kind,
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_snapshot(cls, snap: Mapping) -> "Gauge":
        g = cls()
        if snap["count"]:
            g.count = snap["count"]
            g.total = snap["total"]
            g.min = snap["min"]
            g.max = snap["max"]
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gauge):
            return NotImplemented
        return (
            self.count == other.count
            and self.total == other.total
            and (self.count == 0 or (self.min == other.min and self.max == other.max))
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge(count={self.count}, mean={self.mean:.4g})"


class Histogram:
    """Fixed-bucket histogram with an overflow bucket.

    ``edges`` are strictly increasing upper bounds: bucket ``i`` counts
    observations ``v`` with ``edges[i-1] < v <= edges[i]`` (the first
    bucket is ``v <= edges[0]``), and one extra overflow bucket counts
    ``v > edges[-1]``.  Because the edges are fixed at creation, two
    histograms with the same edges merge bucket-wise; merging different
    edges is a :class:`ValueError`, not a silent re-binning.
    """

    kind = "histogram"
    __slots__ = ("edges", "buckets", "count", "total")

    def __init__(self, edges: Sequence[float]) -> None:
        edges = tuple(float(e) for e in edges)
        if len(edges) == 0:
            raise ValueError("histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("bucket edges must be strictly increasing")
        self.edges = edges
        self.buckets = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.observe_many([value])

    def observe_many(self, values) -> None:
        v = np.asarray(values, dtype=np.float64).ravel()
        if v.size == 0:
            return
        idx = np.searchsorted(np.asarray(self.edges), v, side="left")
        counts = np.bincount(idx, minlength=len(self.buckets))
        for i, c in enumerate(counts):
            self.buckets[i] += int(c)
        self.count += v.size
        self.total += float(v.sum())

    def merge(self, other: "Histogram") -> None:
        if other.edges != self.edges:
            raise ValueError(
                f"cannot merge histograms with different edges: "
                f"{self.edges} vs {other.edges}"
            )
        self.buckets = [a + b for a, b in zip(self.buckets, other.buckets)]
        self.count += other.count
        self.total += other.total

    def copy(self) -> "Histogram":
        h = Histogram(self.edges)
        h.merge(self)
        return h

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "edges": list(self.edges),
            "buckets": list(self.buckets),
            "count": self.count,
            "total": self.total,
        }

    @classmethod
    def from_snapshot(cls, snap: Mapping) -> "Histogram":
        h = cls(snap["edges"])
        h.buckets = list(snap["buckets"])
        h.count = snap["count"]
        h.total = snap["total"]
        return h

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.edges == other.edges
            and self.buckets == other.buckets
            and self.count == other.count
            and self.total == other.total
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram(edges={self.edges}, count={self.count})"


_KINDS = {m.kind: m for m in (Counter, Gauge, Histogram)}


class MetricRegistry:
    """Named collection of metrics with get-or-create accessors.

    The registry is the unit that crosses the process-pool boundary:
    it pickles as plain state and merges name-wise (union of names,
    metric-wise merge for shared names, kind mismatch is an error).
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    # -- accessors -----------------------------------------------------
    def _get_or_create(self, name: str, kind, *args):
        m = self._metrics.get(name)
        if m is None:
            m = kind(*args)
            self._metrics[name] = m
        elif not isinstance(m, kind):
            raise TypeError(
                f"metric {name!r} already registered as {m.kind}, "
                f"not {kind.kind}"
            )
        return m

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str, edges: Sequence[float]) -> Histogram:
        h = self._get_or_create(name, Histogram, edges)
        if h.edges != tuple(float(e) for e in edges):
            raise ValueError(
                f"histogram {name!r} already registered with edges {h.edges}"
            )
        return h

    def get(self, name: str):
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._metrics))

    # -- merge / snapshot ----------------------------------------------
    def merge(self, other: "MetricRegistry") -> "MetricRegistry":
        """Fold ``other`` in (union of names); returns self."""
        for name, metric in other._metrics.items():
            mine = self._metrics.get(name)
            if mine is None:
                self._metrics[name] = metric.copy()
            elif mine.kind != metric.kind:
                raise TypeError(
                    f"metric {name!r} kind mismatch: {mine.kind} vs {metric.kind}"
                )
            else:
                mine.merge(metric)
        return self

    def snapshot(self) -> dict:
        """Plain JSON-able dict, keys sorted for deterministic output."""
        return {name: self._metrics[name].snapshot() for name in sorted(self._metrics)}

    @classmethod
    def from_snapshot(cls, snap: Mapping) -> "MetricRegistry":
        reg = cls()
        for name, m in snap.items():
            reg._metrics[name] = _KINDS[m["kind"]].from_snapshot(m)
        return reg

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricRegistry):
            return NotImplemented
        return self._metrics == other._metrics

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricRegistry({self.names()})"


def merge_snapshots(*snapshots: Mapping) -> dict:
    """Merge snapshot dicts (as produced by :meth:`MetricRegistry.snapshot`).

    Commutative and associative, with ``{}`` as the identity — the
    reduction the sweep harness runs over per-worker telemetry.
    """
    merged = MetricRegistry()
    for snap in snapshots:
        merged.merge(MetricRegistry.from_snapshot(snap))
    return merged.snapshot()


#: Metric-name prefixes that are wall-clock or host-dependent and are
#: therefore stripped by :func:`deterministic_view`: ``time/`` (wall
#: seconds), ``mem/`` (memory-report samples), and ``prof/rss`` (RSS
#: samples).  Everything else — including the ``prof/kernels/``
#: invocation/element/byte counters — must be a pure function of the
#: seeded RNG streams.  Documented in docs/observability.md.
NONDETERMINISTIC_PREFIXES = (TIME_PREFIX, "mem/", "prof/rss")


def deterministic_view(snapshot: Mapping) -> dict:
    """The snapshot minus wall-clock-adjacent metrics.

    Strips every name matching :data:`NONDETERMINISTIC_PREFIXES`.
    Everything that remains is a pure function of the simulation's
    seeded RNG streams, so a pool sweep and a serial sweep must agree
    on it exactly — profiling enabled or not.
    """
    return {
        name: dict(m) for name, m in snapshot.items()
        if not name.startswith(NONDETERMINISTIC_PREFIXES)
    }
