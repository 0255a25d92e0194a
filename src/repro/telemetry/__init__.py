"""Telemetry: phase timers, mergeable counters, self-describing runs.

The instrumentation layer behind the sweep-sharding and compiled-
backend roadmap items: before fanning cells across processes or
swapping kernels, we need to know where time, energy, and packets go —
per phase of the slot pipeline and per worker of the pool.

Three pieces:

* :mod:`~repro.telemetry.registry` — counters, gauges (commutative
  summaries), and fixed-bucket histograms, collected in a picklable,
  order-insensitively mergeable :class:`MetricRegistry`;
* :mod:`~repro.telemetry.timers` — :class:`Telemetry`, the engine's
  one instrument: a lap clock for phase attribution feeding two
  optional sinks, a registry and a span buffer — and the :data:`NULL`
  disabled singleton whose hooks are no-ops, keeping the instrumented
  engine single-path and essentially free when nothing is attached;
* :mod:`~repro.telemetry.trace` — :class:`SpanTracer`, the bounded
  run → round → phase → kernel span buffer and its exports;
* :mod:`~repro.telemetry.manifest` — config fingerprints and the
  run-manifest header that makes trace files self-describing;
* :mod:`~repro.telemetry.jsonl` — the shared torn-tail-tolerant JSONL
  reader, the atomic text writer, and the optional gzip/zstd
  compression codecs every artifact writer and reader goes through.

See ``docs/observability.md`` for the metric-name taxonomy and the
trace JSONL schema.
"""

from .jsonl import (
    COMPRESSION_CHOICES,
    CompressionUnavailableError,
    JsonlWriter,
    atomic_write_text,
    detect_compression,
    read_jsonl_tolerant,
    read_text_tolerant,
    resolve_compression,
)
from .manifest import (
    MANIFEST_KIND,
    MANIFEST_SCHEMA,
    SHARD_MANIFEST_KIND,
    config_fingerprint,
    run_manifest,
    shard_manifest,
    stable_fingerprint,
)
from .registry import (
    NONDETERMINISTIC_PREFIXES,
    TIME_PREFIX,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    deterministic_view,
    merge_snapshots,
)
from .timers import NULL, NullTelemetry, Telemetry
from .trace import (
    TRACE_SCHEMA,
    SpanTracer,
    merge_trace_summaries,
    read_trace_jsonl,
    rss_mb,
)

__all__ = [
    "COMPRESSION_CHOICES",
    "CompressionUnavailableError",
    "JsonlWriter",
    "MANIFEST_KIND",
    "MANIFEST_SCHEMA",
    "NONDETERMINISTIC_PREFIXES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NULL",
    "NullTelemetry",
    "SHARD_MANIFEST_KIND",
    "SpanTracer",
    "TIME_PREFIX",
    "TRACE_SCHEMA",
    "Telemetry",
    "atomic_write_text",
    "config_fingerprint",
    "detect_compression",
    "deterministic_view",
    "merge_snapshots",
    "merge_trace_summaries",
    "read_jsonl_tolerant",
    "read_text_tolerant",
    "read_trace_jsonl",
    "resolve_compression",
    "rss_mb",
    "run_manifest",
    "shard_manifest",
    "stable_fingerprint",
]
