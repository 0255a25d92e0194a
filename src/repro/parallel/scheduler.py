"""Lease-based sweep scheduler with fault recovery.

Static rank-mod-``K`` sharding (:mod:`repro.parallel.sharding`) wastes
hosts whenever cell costs are skewed: a shard that drew the large-``N``
or chaos cells runs long after its siblings went idle.  This module
replaces the frozen assignment with a *scheduler* — a work-queue over
the same stable cell IDs — while keeping every determinism contract the
static path established: a completed scheduled run merges bit-for-bit
equal to the serial ``sweep_protocols`` run on every deterministic
metric.

Two layers:

* :class:`SweepScheduler` — a **pure state machine** (no I/O, no
  processes, injectable clock).  Pending cells wait in one FIFO queue
  in canonical :meth:`~repro.parallel.sharding.SweepSpec.cells` order,
  and whichever worker asks next gets the front cell.  One coordinator
  grants every lease, so a single queue already balances skewed cell
  costs.  Every running cell is covered by a :class:`Lease` with a
  deadline; an expired lease — or a dead worker — is **reclaimed** and
  the cell goes to the back of the queue.  Failure handling rides the
  fault taxonomy of :func:`~repro.parallel.sharding.classify_error`: a
  *deterministic* failure becomes a ``cell-error`` row immediately
  (replaying a pure function cannot change the outcome); a *transient*
  one, like a reclaim, spends one grant of the cell's
  ``max_lease_attempts``.  The lease is the only retry.  The machine
  guarantees **exactly-once rows**: however leases, reclaims, and
  duplicate completions interleave, each cell contributes exactly one
  ``cell`` or ``cell-error`` record (the hypothesis property suite
  drives random interleavings against this invariant).

* :func:`run_scheduled` — the **process coordinator**, and the only
  sweep executor: static shards (:func:`~repro.parallel.sharding.run_shard`)
  and serial sweeps run through it too.  One coordinator owns the
  state machine and the artifact; each worker is a separate
  ``multiprocessing`` process fed resolved cells over a pipe (or, with
  ``serial=True``, the coordinator runs them itself).  A worker death
  (SIGKILL, OOM) surfaces as pipe EOF: the coordinator reclaims its
  lease, counts a worker death, and respawns a replacement, so a
  chaos-killed fleet heals itself.  Rows stream into the artifact as
  they are accepted (the shard JSONL schema, under the reserved
  ``shard 0/0`` whole-grid marker or a static shard's ``k/K``,
  optionally gzip compressed), so ``merge_artifacts`` and
  ``repro merge`` consume it unchanged.

The run log is the ``<artifact>.events.jsonl`` sidecar: every state
machine event (lease grants, reclaims, requeues, worker deaths,
duplicate drops, completions) plus the driver's ``start``,
``draining``, ``stopped`` and ``finish`` markers, each stamped with
the coordinator's monotonic clock reading ``t``.  It is per-run
ephemera that never merges or fingerprints.  The chaos tests assert
re-lease decisions from it, and :func:`load_status` folds it into the
progress row ``repro status`` prints.
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..telemetry.jsonl import JsonlWriter, read_jsonl_tolerant
from ..telemetry.manifest import shard_manifest
from .sharding import (
    CELL_KIND,
    SHARD_TELEMETRY_KIND,
    CellOptions,
    SweepCell,
    SweepSpec,
    _cell_record,
    _dump,
    _error_record,
    _guarded_cell,
    artifact_compression,
    load_artifact,
    partition_cells,
    rewrite_artifact,
    telemetry_trailer,
)

__all__ = [
    "SCHED_EVENT_KIND",
    "Lease",
    "SweepRunResult",
    "SweepScheduler",
    "default_workers",
    "find_status_files",
    "load_status",
    "run_scheduled",
    "scheduler_events_path",
]

#: Record discriminator of one scheduler-event sidecar row.
SCHED_EVENT_KIND = "sched-event"

#: Default lease duration; generous because workers cannot heartbeat
#: mid-cell (they run the simulation synchronously) — expiry is the
#: straggler backstop, pipe EOF is the fast death path.
DEFAULT_LEASE_SECONDS = 300.0

#: Default re-leases per cell after its first grant: a cell that keeps
#: failing transiently, or taking its worker down with it, must
#: eventually become an error row, not an infinite respawn loop.
DEFAULT_RETRIES = 1

#: Smoothing factor of the per-cell latency EWMA in :func:`load_status`.
EWMA_ALPHA = 0.3


def scheduler_events_path(artifact_path) -> Path:
    """The events sidecar for a scheduler artifact (``<name>.events.jsonl``)."""
    p = Path(artifact_path)
    return p.with_name(p.name + ".events.jsonl")


def default_workers(
    max_workers: int | None = None, n_tasks: int | None = None
) -> int:
    """Resolve a worker count: explicit value, else usable CPUs - 1.

    Usable CPUs are this process's affinity set where the platform
    reports one (``taskset`` and cpusets shrink it below
    ``os.cpu_count()``), leaving one core for the coordinator.
    ``n_tasks`` caps the answer at the number of cells to run, so a
    2-cell shard never spawns a large fleet only to leave most workers
    idle at fork cost.
    """
    if max_workers is not None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        workers = max_workers
    else:
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:  # pragma: no cover - macOS / Windows
            cpus = os.cpu_count() or 2
        workers = max(1, cpus - 1)
    if n_tasks is not None:
        if n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        workers = min(workers, n_tasks)
    return workers


@dataclass(frozen=True)
class Lease:
    """One worker's claim on one cell, bounded by a deadline."""

    cell_id: str
    worker: str
    attempt: int  # 1-based count of lease grants for this cell
    granted_at: float
    deadline: float


class SweepScheduler:
    """The pure lease state machine over one FIFO queue.

    Parameters
    ----------
    cells:
        The cells still to run (canonical enumeration order; resumed
        cells are simply not handed in).  Leases are granted in this
        order; a requeued cell goes to the back.
    lease_seconds / max_lease_attempts:
        Lease duration (``math.inf``: leases never expire) and the
        per-cell bound on grants.  A transient failure, an expired
        lease and a dead worker each spend one grant; a reclaim past
        the bound synthesises a transient ``LeaseExhausted`` error row.

    Every cell is, at any instant, in exactly one of four places:
    queued, leased, finished-as-row, or finished-as-error
    (:meth:`check_invariants` asserts the partition; the property
    suite calls it after every operation).  All mutating methods take
    ``now`` explicitly — the machine never reads a clock.
    """

    def __init__(
        self,
        cells: list[SweepCell],
        *,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        max_lease_attempts: int = 1 + DEFAULT_RETRIES,
    ) -> None:
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        if max_lease_attempts < 1:
            raise ValueError("max_lease_attempts must be >= 1")
        self.cells = {c.cell_id: c for c in cells}
        if len(self.cells) != len(cells):
            raise ValueError("duplicate cell IDs")
        self.lease_seconds = float(lease_seconds)
        self.max_lease_attempts = int(max_lease_attempts)
        #: Pending cell IDs, front first.
        self.queue: deque[str] = deque(c.cell_id for c in cells)
        #: cell_id -> live lease (at most one per cell *and* per worker).
        self.leases: dict[str, Lease] = {}
        #: cell_id -> total lease grants so far.
        self.attempts: dict[str, int] = {}
        #: Finished cells: exactly-once rows, keyed by cell ID.
        self.rows: dict[str, dict] = {}
        self.errors: dict[str, dict] = {}
        self.events: list[dict] = []
        self.reclaims = 0
        self.duplicates = 0
        self._seq = 0

    # -- queries -------------------------------------------------------
    @property
    def finished(self) -> bool:
        return len(self.rows) + len(self.errors) == len(self.cells)

    def lease_of(self, worker: str) -> Lease | None:
        for lease in self.leases.values():
            if lease.worker == worker:
                return lease
        return None

    # -- events --------------------------------------------------------
    def event(self, event: str, now: float, **payload) -> dict:
        """Append one event to the run log, stamped ``t=now``.

        The machine logs its own transitions; the driver adds its
        lifecycle markers (``start``/``draining``/``stopped``/
        ``finish``) here too, so one gapless ``seq`` orders them all.
        """
        self._seq += 1
        record = {
            "kind": SCHED_EVENT_KIND,
            "seq": self._seq,
            "event": event,
            "t": now,
            **payload,
        }
        self.events.append(record)
        return record

    # -- acquire -----------------------------------------------------
    def acquire(self, worker: str, now: float) -> SweepCell | None:
        """Grant ``worker`` a lease on the front cell of the queue.

        Returns ``None`` when no cell is runnable right now (all queued
        work finished or leased elsewhere).
        """
        if self.lease_of(worker) is not None:
            raise ValueError(f"worker {worker!r} already holds a lease")
        if not self.queue:
            return None
        cell_id = self.queue.popleft()
        attempt = self.attempts.get(cell_id, 0) + 1
        self.attempts[cell_id] = attempt
        self.leases[cell_id] = Lease(
            cell_id=cell_id,
            worker=worker,
            attempt=attempt,
            granted_at=now,
            deadline=now + self.lease_seconds,
        )
        self.event(
            "lease", now, cell_id=cell_id, worker=worker, attempt=attempt
        )
        return self.cells[cell_id]

    # -- expiry --------------------------------------------------------
    def reclaim_expired(self, now: float) -> list[str]:
        """Reclaim every lease whose deadline passed; requeue the cells.

        Expiry is indistinguishable from a wedged-or-dead worker, so it
        is treated as a transient failure: the cell goes to the back of
        the queue unless its attempt budget is exhausted, in which case
        a synthetic ``LeaseExhausted`` transient error row records the
        casualty.  If the original worker was merely slow and completes
        later, the late result is still accepted (first result wins;
        the re-leased twin becomes a counted duplicate).
        """
        expired = [
            lease for lease in self.leases.values() if lease.deadline <= now
        ]
        reclaimed = []
        for lease in expired:
            self.reclaims += 1
            self.event(
                "reclaim",
                now,
                cell_id=lease.cell_id,
                worker=lease.worker,
                attempt=lease.attempt,
                reason="lease-expired",
            )
            self._requeue_or_exhaust(lease, now, reason="lease-expired")
            reclaimed.append(lease.cell_id)
        return reclaimed

    def worker_lost(self, worker: str, now: float, reason: str = "died") -> None:
        """Reclaim the lease of a worker that will never report back.

        A process death is environmental by definition — transient —
        so the in-flight cell re-queues for another worker, bounded by
        the attempt budget.
        """
        lease = self.lease_of(worker)
        self.event(
            "worker-dead",
            now,
            worker=worker,
            cell_id=None if lease is None else lease.cell_id,
            reason=reason,
        )
        if lease is None:
            return
        self.reclaims += 1
        self.event(
            "reclaim",
            now,
            cell_id=lease.cell_id,
            worker=worker,
            attempt=lease.attempt,
            reason=reason,
        )
        self._requeue_or_exhaust(lease, now, reason=reason)

    def _requeue_or_exhaust(self, lease: Lease, now: float, reason: str) -> None:
        del self.leases[lease.cell_id]
        if lease.attempt >= self.max_lease_attempts:
            cell = self.cells[lease.cell_id]
            self.errors[lease.cell_id] = _error_record(
                cell,
                {
                    "type": "LeaseExhausted",
                    "message": (
                        f"{lease.attempt} lease(s) lost "
                        f"(last: {reason}) without a result"
                    ),
                    "class": "transient",
                },
                lease.attempt,
            )
            self.event(
                "error",
                now,
                cell_id=lease.cell_id,
                worker=lease.worker,
                attempt=lease.attempt,
                error_class="transient",
                error_type="LeaseExhausted",
            )
        else:
            self.queue.append(lease.cell_id)
            self.event(
                "requeue",
                now,
                cell_id=lease.cell_id,
                attempt=lease.attempt,
                reason=reason,
            )

    # -- completion / failure -----------------------------------------
    def complete(
        self, worker: str, cell_id: str, summary: dict, attempts: int, now: float
    ) -> dict | None:
        """Accept one cell result; returns the artifact record, or
        ``None`` for a duplicate.

        First result wins: a result for an already-finished cell (the
        re-leased twin of a slow-but-alive worker, or a worker whose
        lease was reclaimed) is dropped and counted — cells are
        deterministic, so the dropped copy carried the same values.  A
        result from a worker that lost its lease but whose cell is
        still unfinished is *accepted*: the computation is valid
        regardless of who holds the paper.  ``attempts`` is the grant
        number of the lease that computed the result; the row records
        it.
        """
        if cell_id not in self.cells:
            raise ValueError(f"unknown cell {cell_id}")
        if cell_id in self.rows or cell_id in self.errors:
            self.duplicates += 1
            self.event("duplicate", now, cell_id=cell_id, worker=worker)
            return None
        if self.leases.pop(cell_id, None) is None:
            # Neither leased nor finished, so queued: a late result for
            # a reclaimed cell.  Its pending retry is no longer needed.
            self.queue.remove(cell_id)
        record = _cell_record(self.cells[cell_id], summary, attempts)
        self.rows[cell_id] = record
        self.event(
            "complete", now, cell_id=cell_id, worker=worker, attempt=attempts
        )
        return record

    def fail(
        self, worker: str, cell_id: str, error: dict, attempts: int, now: float
    ) -> dict | None:
        """Record one cell failure; returns an error record iff the
        cell is now finished (deterministic failure or exhausted
        budget), ``None`` if it re-leased or the report was stale.
        ``attempts`` is the grant number of the failed lease, as in
        :meth:`complete`.

        ``error`` is the payload :func:`_guarded_cell` ships home
        (``type``/``message``/``class``).  The ``class`` decides:
        deterministic → ``cell-error`` row *immediately*, no re-lease;
        transient → requeue until ``max_lease_attempts`` grants are
        spent, then an error row.
        """
        if cell_id not in self.cells:
            raise ValueError(f"unknown cell {cell_id}")
        if cell_id in self.rows or cell_id in self.errors:
            self.duplicates += 1
            self.event("duplicate", now, cell_id=cell_id, worker=worker)
            return None
        lease = self.leases.get(cell_id)
        if lease is None or lease.worker != worker:
            # A reporter whose lease was reclaimed (cell re-queued, or
            # re-granted to another worker): its failure says nothing
            # the reclaim didn't already — acting on it would queue the
            # cell twice.  Late *successes* are different: complete()
            # accepts them whoever reports, first result wins.
            self.event("stale-failure", now, cell_id=cell_id, worker=worker)
            return None
        del self.leases[cell_id]
        grants = self.attempts.get(cell_id, 1)
        if error.get("class") == "deterministic" or grants >= self.max_lease_attempts:
            record = _error_record(self.cells[cell_id], error, attempts)
            self.errors[cell_id] = record
            self.event(
                "error",
                now,
                cell_id=cell_id,
                worker=worker,
                attempt=grants,
                error_class=error.get("class", "transient"),
                error_type=error.get("type", "Exception"),
            )
            return record
        self.queue.append(cell_id)
        self.event(
            "requeue",
            now,
            cell_id=cell_id,
            attempt=grants,
            reason=f"transient-{error.get('type', 'error')}",
        )
        return None

    # -- invariants (the property-test surface) -----------------------
    def check_invariants(self) -> None:
        """Assert the exactly-once partition; raises ``AssertionError``.

        Every cell is in exactly one of {queued, leased, row, error};
        no cell is both row and error; the queue holds no finished or
        leased cells; every lease's attempt count is within budget.
        """
        queued = list(self.queue)
        assert len(queued) == len(set(queued)), "cell queued twice"
        finished = set(self.rows) | set(self.errors)
        assert not (set(self.rows) & set(self.errors)), "cell is row AND error"
        assert not (set(queued) & finished), "finished cell still queued"
        assert not (set(self.leases) & finished), "finished cell still leased"
        assert not (set(queued) & set(self.leases)), "leased cell still queued"
        everywhere = set(queued) | set(self.leases) | finished
        assert everywhere == set(self.cells), (
            "cells lost or invented: "
            f"{set(self.cells) ^ everywhere}"
        )
        for cell_id, lease in self.leases.items():
            assert lease.cell_id == cell_id
            assert 1 <= lease.attempt <= self.max_lease_attempts


# ---------------------------------------------------------------------------
# Process driver
# ---------------------------------------------------------------------------


def _worker_main(conn, cell_fn, options: CellOptions) -> None:
    """Worker-process loop: recv a leased ``(cell, attempt)``, run it
    once, send the report home; ``None`` stops the loop."""
    try:
        while (job := conn.recv()) is not None:
            cell, attempt = job
            status, payload = _guarded_cell(cell_fn, (cell, options))
            conn.send((cell.cell_id, status, payload, attempt))
    except (EOFError, KeyboardInterrupt, BrokenPipeError):
        return


@dataclass
class _Worker:
    name: str
    process: object
    conn: object

    @classmethod
    def spawn(cls, ctx, name: str, worker_args: tuple) -> "_Worker":
        parent, child = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main, args=(child, *worker_args), daemon=True
        )
        proc.start()
        child.close()  # the parent keeps only its own end
        return cls(name=name, process=proc, conn=parent)

    def stop(self) -> None:
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=5)
        self.conn.close()


@dataclass
class SweepRunResult:
    """Outcome of one sweep run: a static shard or a whole scheduled grid."""

    spec: SweepSpec
    path: Path
    cells: list[SweepCell]
    #: Cell IDs actually simulated in this invocation.
    executed: list[str] = field(default_factory=list)
    #: Cell IDs reused from the existing artifact (resume hits).
    skipped: list[str] = field(default_factory=list)
    #: Error records produced by this invocation.
    errors: list[dict] = field(default_factory=list)
    reclaims: int = 0
    duplicates: int = 0
    worker_deaths: int = 0
    events_path: Path | None = None

    @property
    def ok(self) -> bool:
        return not self.errors


def _mine_resume(
    spec: SweepSpec, out_path: Path, cells, marker: tuple[int, int]
) -> tuple[dict[str, dict], bool]:
    """Mine an existing artifact for reusable rows.

    Returns ``(retained, stale)``: the ``cell`` rows of ``cells`` keyed
    by cell ID (the ID pins the whole scenario, so a row recorded under
    any other config can never match), and whether the file holds
    anything a canonical rewrite would drop — error rows, foreign or
    duplicate rows, a foreign manifest, a missing or misplaced
    telemetry trailer.  A torn final line (dropped by the tolerant
    reader) just loses that one record; an instrumented resume refuses
    rows recorded without their telemetry snapshot; an unreadable
    artifact is recomputed whole.
    """
    by_id = {c.cell_id for c in cells}
    retained: dict[str, dict] = {}
    if not out_path.exists():
        return retained, False
    try:
        artifact = load_artifact(out_path)
    except ValueError:
        return retained, True
    manifest = artifact.manifest
    stale = manifest.get("spec_fingerprint") != spec.fingerprint or (
        manifest.get("shard"),
        manifest.get("num_shards"),
    ) != marker
    trailers = 0
    for record in artifact.records:
        kind = record.get("kind")
        if (
            kind == CELL_KIND
            and record.get("cell_id") in by_id
            and record["cell_id"] not in retained
            and (not spec.telemetry or "telemetry" in record)
        ):
            retained[record["cell_id"]] = record
        elif kind == SHARD_TELEMETRY_KIND:
            trailers += 1
        else:
            stale = True
    # A canonical artifact ends with exactly one telemetry trailer iff
    # the spec is instrumented.
    if spec.telemetry:
        stale |= trailers != 1 or artifact.records[-1].get("kind") != (
            SHARD_TELEMETRY_KIND
        )
    else:
        stale |= trailers > 0
    return retained, stale


def run_scheduled(
    spec: SweepSpec,
    out_path,
    *,
    shard: tuple[int, int] | None = None,
    num_workers: int | None = None,
    serial: bool = False,
    resume: bool = True,
    retries: int = DEFAULT_RETRIES,
    cell_fn: Callable | None = None,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    compression: str | None = None,
    poll_seconds: float = 0.1,
    mp_context: str | None = None,
    checkpoint_every: int | None = None,
    checkpoint_dir=None,
    checkpoint_keep_last: int = 3,
    stop_requested: Callable[[], bool] | None = None,
) -> SweepRunResult:
    """Run a sweep grid — or one static shard of it — into an artifact.

    This is the one sweep executor: ``repro sweep`` (sharded or
    ``--scheduler``) and :func:`repro.analysis.sweep.sweep_from_spec`
    both run through it.
    The coordinator builds every cell's resolved config once
    (:meth:`SweepSpec.cells`) and ships the cells to workers.

    ``shard=(k, K)`` restricts the run to the rank partition's ``k``-th
    slice and writes the ``k/K`` marker (see
    :func:`~repro.parallel.sharding.run_shard`); the default covers the
    whole grid under the reserved ``0/0`` marker.  Either way the
    artifact is the shard JSONL schema, so ``merge_artifacts`` /
    ``repro merge`` / ``repro fig3 --from-artifacts`` consume it
    unchanged; ``compression`` selects the codec
    (``none``/``gz``; ``None`` keeps an existing
    artifact's).  Rows stream out as results are accepted — a crash
    loses at most in-flight cells and a resume reuses the rest; a
    complete artifact is left byte-untouched.

    ``serial=True`` runs the cells in this process (canonical order; an
    exception that is not an ``Exception`` propagates to the caller);
    otherwise ``num_workers`` processes each hold one lease at a time.

    Every cell gets ``1 + retries`` lease grants.  A transient failure,
    a dead worker (pipe EOF; the coordinator respawns a replacement) and
    an expired lease (``lease_seconds``; ``math.inf`` turns expiry off)
    each spend one; a deterministic failure becomes a ``cell-error``
    row at once.  ``cell_fn(cell, options)`` replaces the default
    executor (:func:`repro.analysis.sweep.execute_cell`) — the
    fault-injection seam of the tests.

    ``checkpoint_every`` + ``checkpoint_dir`` make every cell
    preemptible (see :class:`~repro.parallel.sharding.CellOptions`): a
    reclaimed or re-leased cell resumes from the victim attempt's
    newest valid snapshot instead of recomputing from round 0 —
    bit-identical either way.

    ``stop_requested`` (e.g. a
    :class:`~repro.parallel.signals.DrainFlag`) makes the coordinator
    drain gracefully: once it returns true, no new leases are granted,
    in-flight cells finish and their rows are accepted, the run log
    records ``draining`` and then ``stopped``, and a later
    ``resume=True`` call computes exactly the remaining cells.  A flag
    already latched when the run starts spawns no worker process.
    """
    import multiprocessing as mp
    from multiprocessing import connection as mp_conn

    if retries < 0:
        raise ValueError("retries must be >= 0")
    marker = (0, 0) if shard is None else tuple(shard)
    cells = spec.cells()
    if shard is not None:
        if not 1 <= marker[0] <= marker[1]:
            raise ValueError(f"shard {marker[0]}/{marker[1]} out of range")
        cells = partition_cells(cells, marker[1])[marker[0] - 1]
    out_path = Path(out_path)
    codec = artifact_compression(out_path, compression)
    retained, stale = (
        _mine_resume(spec, out_path, cells, marker) if resume else ({}, False)
    )
    pending = [c for c in cells if c.cell_id not in retained]
    workers_n = (
        1 if serial else default_workers(num_workers, n_tasks=len(pending) or None)
    )

    result = SweepRunResult(
        spec=spec,
        path=out_path,
        cells=cells,
        skipped=sorted(retained),
        events_path=scheduler_events_path(out_path),
    )
    scheduler = SweepScheduler(
        pending,
        lease_seconds=lease_seconds,
        max_lease_attempts=1 + retries,
    )
    scheduler.event(
        "start",
        time.monotonic(),
        spec_fingerprint=spec.fingerprint,
        shard=marker[0],
        num_shards=marker[1],
        cells_total=len(cells),
        resumed=len(retained),
        unix=time.time(),
    )
    events = JsonlWriter(result.events_path, compression="none")
    events_flushed = 0

    def _drain_events() -> None:
        nonlocal events_flushed
        while events_flushed < len(scheduler.events):
            events.write_record(scheduler.events[events_flushed])
            events_flushed += 1
        events.flush()

    # The log opens with its start marker before any cell runs.
    _drain_events()
    if not pending and not stale:
        # Complete, canonical artifact: recompute nothing, leave the
        # bytes untouched, close the refreshed log.
        scheduler.event("finish", time.monotonic())
        _drain_events()
        events.close()
        return result

    # Atomic canonical rewrite (manifest + retained rows), then stream
    # appends: a crash never loses rows that were already on disk.
    manifest = shard_manifest(
        spec.to_payload(),
        spec.fingerprint,
        *marker,
        extra={
            "scheduler": {
                "workers": workers_n,
                # ``null``: leases never expire (JSON has no infinity).
                "lease_seconds": (
                    float(lease_seconds) if math.isfinite(lease_seconds) else None
                ),
                "max_lease_attempts": scheduler.max_lease_attempts,
                "compression": codec,
            }
        },
    )
    records: list[dict] = [
        retained[c.cell_id] for c in cells if c.cell_id in retained
    ]
    rewrite_artifact(out_path, codec, [manifest, *records])

    if cell_fn is None:
        # Deferred: repro.analysis imports this package at module scope.
        from ..analysis.sweep import execute_cell as cell_fn
    options = CellOptions(
        telemetry=spec.telemetry,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        checkpoint_keep_last=checkpoint_keep_last,
    )
    worker_args = (cell_fn, options)
    ctx = mp.get_context(mp_context) if mp_context else mp.get_context()
    fleet: dict[str, _Worker] = {}
    deaths = 0
    draining = False

    fh = JsonlWriter(out_path, compression=codec, append=True)

    def _accept(record: dict, *, error: bool) -> None:
        records.append(record)
        if error:
            result.errors.append(record)
        else:
            result.executed.append(record["cell_id"])
        fh.write_line(_dump(record))
        fh.flush()

    def _report(worker: str, cell_id: str, status, payload, attempt) -> None:
        now = time.monotonic()
        if status == "ok":
            record = scheduler.complete(worker, cell_id, payload, attempt, now)
        else:
            record = scheduler.fail(worker, cell_id, payload, attempt, now)
        if record is not None:
            _accept(record, error=status != "ok")
        # The log shows the cell finished before anything else happens
        # (a drain flag may poll it).
        _drain_events()

    def _flush_synthetic_errors() -> None:
        """Error rows minted *inside* the state machine (LeaseExhausted
        on reclaim) have no worker report to accept; sweep any error
        the artifact hasn't recorded yet into it."""
        recorded = {r["cell_id"] for r in result.errors}
        for cell_id, record in scheduler.errors.items():
            if cell_id not in recorded:
                _accept(record, error=True)

    def _assign(worker: _Worker) -> None:
        cell = scheduler.acquire(worker.name, time.monotonic())
        if cell is None:
            return
        try:
            worker.conn.send((cell, scheduler.attempts[cell.cell_id]))
        except (BrokenPipeError, OSError):
            _bury(worker, reason="send-failed")

    def _bury(worker: _Worker, reason: str) -> None:
        nonlocal deaths
        deaths += 1
        scheduler.worker_lost(worker.name, time.monotonic(), reason=reason)
        _flush_synthetic_errors()
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        worker.process.join(timeout=1)
        fleet.pop(worker.name, None)
        if not scheduler.finished and not draining:
            name = f"{worker.name.split('+')[0]}+{deaths}"
            fleet[name] = _Worker.spawn(ctx, name, worker_args)
            _assign(fleet[name])

    def _check_drain() -> bool:
        # Latch at most once; polled at every safe boundary so a worker
        # is never handed a new lease after the drain request.  Queued
        # cells stay queued for a later resume.
        nonlocal draining
        if not draining and stop_requested is not None and stop_requested():
            draining = True
            scheduler.event("draining", time.monotonic())
        return draining

    def _run_inline() -> None:
        while (cell := scheduler.acquire("w0", time.monotonic())) is not None:
            status, payload = _guarded_cell(cell_fn, (cell, options))
            _report(
                "w0", cell.cell_id, status, payload,
                scheduler.attempts[cell.cell_id],
            )
            if _check_drain():
                return

    def _run_fleet() -> None:
        if _check_drain():
            return  # latched before the run: spawn nothing, lease nothing
        for i in range(workers_n):
            fleet[f"w{i}"] = _Worker.spawn(ctx, f"w{i}", worker_args)
        for worker in list(fleet.values()):
            _assign(worker)
        while not scheduler.finished:
            _drain_events()
            if _check_drain() and not scheduler.leases:
                return
            conns = {w.conn: w for w in fleet.values()}
            for conn in mp_conn.wait(list(conns), timeout=poll_seconds):
                worker = conns[conn]
                try:
                    report = conn.recv()
                except (EOFError, OSError):
                    _bury(worker, reason="worker-died")
                    continue
                _report(worker.name, *report)
                if not _check_drain():
                    _assign(worker)
            scheduler.reclaim_expired(time.monotonic())
            _flush_synthetic_errors()
            # Reclaimed / requeued cells may have idled workers waiting.
            if not draining:
                for worker in list(fleet.values()):
                    if scheduler.lease_of(worker.name) is None:
                        _assign(worker)

    try:
        if serial:
            _run_inline()
        elif pending:
            _run_fleet()
        # A drained run skips the trailer on purpose: the artifact is
        # left non-canonical, so the next resume rewrites it and
        # computes exactly the missing cells.
        if spec.telemetry and scheduler.finished:
            fh.write_line(_dump(telemetry_trailer(records)))
        scheduler.event(
            "finish" if scheduler.finished else "stopped", time.monotonic()
        )
    finally:
        fh.close()
        for worker in list(fleet.values()):
            worker.stop()
        _drain_events()
        events.close()

    result.reclaims = scheduler.reclaims
    result.duplicates = scheduler.duplicates
    result.worker_deaths = deaths
    return result


def load_status(path) -> dict:
    """Fold one run log into the progress row ``repro status`` prints.

    The log is read tolerantly (a live log's torn final line is
    dropped), and the fold starts at its last ``start`` marker.  ``done``
    counts resumed and finished cells, ``failed`` the error rows among
    them, ``retried`` the finished cells that took more than one lease
    grant, and ``reclaimed`` the reclaimed leases.
    ``ewma_cell_seconds`` smooths the gaps between finished cells (the
    first gap runs from that cell's first lease, so the coordinator's
    start-up before any cell is leased stays out of it), and
    ``eta_seconds`` is it times the cells remaining (``None`` before
    the first finish, ``0.0`` once none remain).  Event times are the
    coordinator's monotonic ``t``; the ``start`` marker's ``unix``
    anchors them to the wall clock for ``updated_unix``.  Raises
    ``ValueError`` when the log holds no ``start`` marker.
    """
    events = read_jsonl_tolerant(path)
    starts = [i for i, e in enumerate(events) if e.get("event") == "start"]
    if not starts:
        raise ValueError(f"{path}: run log has no 'start' event")
    start, *rest = events[starts[-1]:]
    done = start["resumed"]
    failed = retried = reclaimed = 0
    ewma: float | None = None
    first_lease: dict[str, float] = {}
    t_last = start["t"]
    state = "running"
    for e in rest:
        verb = e["event"]
        if verb == "lease":
            first_lease.setdefault(e["cell_id"], e["t"])
        elif verb in ("complete", "error"):
            done += 1
            failed += verb == "error"
            retried += e["attempt"] > 1
            if ewma is None:
                t_last = first_lease.get(e["cell_id"], t_last)
            dt, t_last = e["t"] - t_last, e["t"]
            ewma = dt if ewma is None else ewma + EWMA_ALPHA * (dt - ewma)
        elif verb == "reclaim":
            reclaimed += 1
        elif verb in ("draining", "stopped"):
            state = verb
        elif verb == "finish":
            state = "complete"
    remaining = max(0, start["cells_total"] - done)
    if state == "complete" or remaining == 0:
        eta: float | None = 0.0
    else:
        eta = None if ewma is None else ewma * remaining
    return {
        "spec_fingerprint": start["spec_fingerprint"],
        "shard": start["shard"],
        "num_shards": start["num_shards"],
        "cells_total": start["cells_total"],
        "done": done,
        "failed": failed,
        "retried": retried,
        "resumed": start["resumed"],
        "reclaimed": reclaimed,
        "ewma_cell_seconds": ewma,
        "eta_seconds": eta,
        "updated_unix": start["unix"] + (events[-1]["t"] - start["t"]),
        "state": state,
    }


def find_status_files(paths) -> list[Path]:
    """Resolve ``repro status`` operands to run logs.

    A directory contributes every ``*.events.jsonl`` beneath it
    (sorted); a run log contributes itself; any other file path
    contributes its own run log when one exists.  Duplicates are
    dropped, first mention wins.
    """
    found: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            found.extend(sorted(p.glob("**/*.events.jsonl")))
        elif p.name.endswith(".events.jsonl"):
            if p.exists():
                found.append(p)
        elif scheduler_events_path(p).exists():
            found.append(scheduler_events_path(p))
    unique: dict[Path, Path] = {}
    for p in found:
        unique.setdefault(p.resolve(), p)
    return list(unique.values())
