"""Live shard progress: a status sidecar next to each shard artifact.

A sweep sharded ``--shard k/K`` across machines is opaque while it
runs: the artifact is an append-only stream of finished cells, so the
only way to estimate progress was to count its rows by hand.  This
module gives the sweep executor
(:func:`~repro.parallel.scheduler.run_scheduled`) a heartbeat —
a *separate* sidecar file (``<artifact>.status.jsonl``) it rewrites
atomically as cells finish, holding ``shard-status`` rows with cells
done/failed/retried, an EWMA of the per-cell latency, and an ETA.

The sidecar is deliberately **not** part of the artifact:

* the resume contract says a complete artifact is left byte-untouched
  (the shard-determinism CI gate asserts it), so progress rows cannot
  live inside it;
* status rows carry wall-clock and are per-machine ephemera — they
  never merge, never fingerprint, and a stale sidecar is harmless.

Each rewrite keeps the first row (the launch record) plus the newest
:data:`MAX_STATUS_ROWS` − 1 heartbeats, so the file stays small on
long shards while preserving the start-of-run context.  Writes go
through :func:`~repro.telemetry.jsonl.atomic_write_text` so a reader
(``repro status``) never sees a torn row; :func:`load_status`
additionally tolerates a torn tail for robustness against non-atomic
copies.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from ..telemetry.jsonl import atomic_write_text

__all__ = [
    "EWMA_ALPHA",
    "MAX_STATUS_ROWS",
    "STATUS_KIND",
    "STATUS_SCHEMA",
    "ShardStatusWriter",
    "find_status_files",
    "load_status",
    "shard_status_path",
]

#: ``kind`` discriminator of a status row.
STATUS_KIND = "shard-status"
#: Schema version of the status row layout.
STATUS_SCHEMA = 1
#: Rows kept per sidecar: the launch row plus the newest heartbeats.
MAX_STATUS_ROWS = 64
#: Smoothing factor of the per-cell latency EWMA.
EWMA_ALPHA = 0.3


def shard_status_path(artifact_path) -> Path:
    """The sidecar path for a shard artifact (``<name>.status.jsonl``)."""
    p = Path(artifact_path)
    return p.with_name(p.name + ".status.jsonl")


class ShardStatusWriter:
    """Appends heartbeat rows to a shard's status sidecar.

    Owned by :func:`~repro.parallel.scheduler.run_scheduled`; one writer
    per run.  ``clock``/``wall`` are injectable for tests
    (monotonic seconds for latency math, Unix seconds for freshness).
    """

    def __init__(
        self,
        artifact_path,
        *,
        spec_fingerprint: str,
        shard: int,
        num_shards: int,
        cells_total: int,
        clock=time.monotonic,
        wall=time.time,
    ) -> None:
        self.path = shard_status_path(artifact_path)
        self.spec_fingerprint = spec_fingerprint
        self.shard = int(shard)
        self.num_shards = int(num_shards)
        self.cells_total = int(cells_total)
        self._clock = clock
        self._wall = wall
        self._t_start = 0.0
        self._t_last_cell = 0.0
        self.done = 0
        self.failed = 0
        self.retried = 0
        self.resumed = 0
        #: Scheduler-only counter (stays 0 under static sharding): leases
        #: reclaimed from expired/dead workers.  An additive key —
        #: STATUS_SCHEMA is unchanged because readers of schema 1 ignore
        #: unknown keys.
        self.reclaimed = 0
        self.ewma_cell_seconds: float | None = None
        self._rows: list[dict] = []

    def start(self, resumed: int = 0) -> None:
        """Record the launch row (``resumed`` = cells reused as-is)."""
        self._t_start = self._clock()
        self._t_last_cell = self._t_start
        self.resumed = int(resumed)
        self.done = int(resumed)
        self._write("running")

    def cell_finished(self, *, error: bool = False, attempts: int = 1) -> None:
        """Record one finished cell (ok or error) and its latency."""
        now = self._clock()
        dt = now - self._t_last_cell
        self._t_last_cell = now
        if self.ewma_cell_seconds is None:
            self.ewma_cell_seconds = dt
        else:
            self.ewma_cell_seconds += EWMA_ALPHA * (dt - self.ewma_cell_seconds)
        self.done += 1
        if error:
            self.failed += 1
        if attempts > 1:
            self.retried += 1
        self._write("running")

    def finish(self) -> None:
        """Record the terminal row (state ``complete``)."""
        self._write("complete")

    def draining(self) -> None:
        """Record that a drain signal arrived: the shard is finishing
        its in-flight cell(s) and will stop without starting new ones."""
        self._write("draining")

    def stopped(self) -> None:
        """Record the terminal row of a drained shard (state
        ``stopped``): a clean early exit, not a completion — resuming
        the same artifact later picks up the remaining cells."""
        self._write("stopped")

    def _row(self, state: str) -> dict:
        remaining = max(0, self.cells_total - self.done)
        if state == "complete" or remaining == 0:
            eta: float | None = 0.0
        elif self.ewma_cell_seconds is None:
            eta = None
        else:
            eta = self.ewma_cell_seconds * remaining
        return {
            "kind": STATUS_KIND,
            "schema": STATUS_SCHEMA,
            "spec_fingerprint": self.spec_fingerprint,
            "shard": self.shard,
            "num_shards": self.num_shards,
            "cells_total": self.cells_total,
            "done": self.done,
            "failed": self.failed,
            "retried": self.retried,
            "resumed": self.resumed,
            "reclaimed": self.reclaimed,
            "ewma_cell_seconds": self.ewma_cell_seconds,
            "eta_seconds": eta,
            "elapsed_seconds": self._clock() - self._t_start,
            "updated_unix": self._wall(),
            "state": state,
        }

    def _write(self, state: str) -> None:
        self._rows.append(self._row(state))
        if len(self._rows) > MAX_STATUS_ROWS:
            # Keep the launch row and the newest heartbeats.
            self._rows = [self._rows[0]] + self._rows[-(MAX_STATUS_ROWS - 1):]
        atomic_write_text(
            self.path,
            "".join(json.dumps(row, sort_keys=True) + "\n" for row in self._rows),
        )


def load_status(path) -> dict:
    """The newest valid status row of one sidecar.

    Tolerates a torn final line (non-atomic copies of a live file);
    raises ``ValueError`` when no valid row exists at all.
    """
    last: dict | None = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail
            if isinstance(row, dict) and row.get("kind") == STATUS_KIND:
                last = row
    if last is None:
        raise ValueError(f"no {STATUS_KIND!r} rows in {path}")
    return last


def find_status_files(paths) -> list[Path]:
    """Resolve CLI operands to status sidecars.

    A directory contributes every ``*.status.jsonl`` beneath it
    (sorted); a sidecar path contributes itself; any other file path
    contributes its own sidecar when one exists.
    """
    found: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            found.extend(sorted(p.glob("**/*.status.jsonl")))
        elif p.name.endswith(".status.jsonl"):
            if p.exists():
                found.append(p)
        else:
            sidecar = shard_status_path(p)
            if sidecar.exists():
                found.append(sidecar)
    # De-duplicate while preserving order.
    seen: set[Path] = set()
    unique: list[Path] = []
    for p in found:
        rp = p.resolve()
        if rp not in seen:
            seen.add(rp)
            unique.append(p)
    return unique
