"""Work-stealing sweep scheduler with lease-based fault recovery.

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
  processes, injectable clock).  Cells start in per-worker *home
  queues* dealt by the same :func:`~repro.parallel.sharding.partition_cells`
  rank partition, so locality mirrors static sharding when costs are
  even; an idle worker whose home queue drained **steals** from the
  longest remaining queue.  Every running cell is covered by a
  :class:`Lease` with a deadline; an expired lease — or a dead worker —
  is **reclaimed** and the cell re-queued.  Failure handling rides the
  PR-5 fault taxonomy: a *deterministic* failure
  (:func:`~repro.parallel.sharding.classify_error`) becomes a
  ``cell-error`` row immediately (replaying a pure function cannot
  change the outcome); a *transient* one re-leases up to
  ``max_lease_attempts`` times.  The machine guarantees **exactly-once
  rows**: however leases, steals, reclaims, and duplicate completions
  interleave, each cell contributes exactly one ``cell`` or
  ``cell-error`` record (the hypothesis property suite drives random
  interleavings against this invariant).

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
  optionally zstd/gzip compressed), so ``merge_artifacts`` and
  ``repro merge`` consume it unchanged.

Scheduler *events* (lease grants, steals, reclaims, requeues, worker
deaths, duplicate drops) are appended to an ``<artifact>.events.jsonl``
sidecar — like the status sidecar, they are per-run ephemera that never
merge or fingerprint, but they make a chaotic run auditable: the chaos
tests and the CI determinism gate assert re-lease decisions from them.
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..telemetry.jsonl import JsonlWriter
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
from .status import ShardStatusWriter

__all__ = [
    "SCHED_EVENT_KIND",
    "Lease",
    "SweepRunResult",
    "SweepScheduler",
    "default_workers",
    "run_scheduled",
    "scheduler_events_path",
]

#: Record discriminator of one scheduler-event sidecar row.
SCHED_EVENT_KIND = "sched-event"

#: Default lease duration; generous because workers cannot heartbeat
#: mid-cell (they run the simulation synchronously) — expiry is the
#: straggler backstop, pipe EOF is the fast death path.
DEFAULT_LEASE_SECONDS = 300.0

#: Default bound on lease attempts per cell: a cell that keeps taking
#: its worker down with it must eventually become an error row, not an
#: infinite respawn loop.
DEFAULT_MAX_LEASE_ATTEMPTS = 3


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
    stolen: bool = False


class SweepScheduler:
    """The pure work-stealing lease state machine.

    Parameters
    ----------
    cells:
        The cells still to run (canonical enumeration order; resumed
        cells are simply not handed in).
    num_queues:
        Home-queue count — normally the worker-fleet size.  Queue
        assignment is the rank partition of
        :func:`~repro.parallel.sharding.partition_cells`, so a
        never-stealing run visits cells exactly as static shards would.
    lease_seconds / max_lease_attempts:
        Lease duration (``math.inf``: leases never expire) and the
        per-cell bound on grants; exceeding the bound synthesises a
        transient ``LeaseExhausted`` error row.

    Every cell is, at any instant, in exactly one of four places:
    queued, leased, finished-as-row, or finished-as-error
    (:meth:`check_invariants` asserts the partition; the property
    suite calls it after every operation).  All mutating methods take
    ``now`` explicitly — the machine never reads a clock.
    """

    def __init__(
        self,
        cells: list[SweepCell],
        num_queues: int,
        *,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        max_lease_attempts: int = DEFAULT_MAX_LEASE_ATTEMPTS,
    ) -> None:
        if num_queues < 1:
            raise ValueError("num_queues must be >= 1")
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        if max_lease_attempts < 1:
            raise ValueError("max_lease_attempts must be >= 1")
        self.cells = {c.cell_id: c for c in cells}
        if len(self.cells) != len(cells):
            raise ValueError("duplicate cell IDs")
        # Home-queue rank: same sorted-cell-ID ranking partition_cells
        # uses, so a requeued cell returns to the queue it started in.
        self._rank = {
            cid: i for i, cid in enumerate(sorted(self.cells))
        }
        self.num_queues = num_queues
        self.lease_seconds = float(lease_seconds)
        self.max_lease_attempts = int(max_lease_attempts)
        self.queues: list[deque[str]] = [
            deque(c.cell_id for c in q)
            for q in partition_cells(cells, num_queues)
        ]
        #: cell_id -> live lease (at most one per cell *and* per worker).
        self.leases: dict[str, Lease] = {}
        #: cell_id -> total lease grants so far.
        self.attempts: dict[str, int] = {}
        #: Finished cells: exactly-once rows, keyed by cell ID.
        self.rows: dict[str, dict] = {}
        self.errors: dict[str, dict] = {}
        self.events: list[dict] = []
        self.steals = 0
        self.reclaims = 0
        self.duplicates = 0
        self._seq = 0

    # -- queries -------------------------------------------------------
    @property
    def finished(self) -> bool:
        return len(self.rows) + len(self.errors) == len(self.cells)

    @property
    def outstanding(self) -> int:
        """Cells not yet finished (queued or leased)."""
        return len(self.cells) - len(self.rows) - len(self.errors)

    def lease_of(self, worker: str) -> Lease | None:
        for lease in self.leases.values():
            if lease.worker == worker:
                return lease
        return None

    # -- events --------------------------------------------------------
    def _event(self, event: str, **payload) -> dict:
        self._seq += 1
        record = {
            "kind": SCHED_EVENT_KIND,
            "seq": self._seq,
            "event": event,
            **payload,
        }
        self.events.append(record)
        return record

    # -- acquire / steal ----------------------------------------------
    def acquire(
        self, worker: str, worker_index: int, now: float
    ) -> SweepCell | None:
        """Grant ``worker`` a lease on its next cell, stealing if idle.

        Pops from the worker's home queue (``worker_index mod
        num_queues``) first; an empty home queue steals from the back
        of the *longest* other queue (ties break to the lowest index —
        victim selection is deterministic, a pure function of queue
        lengths).  Returns ``None`` when no cell is runnable right now
        (all queued work finished or leased elsewhere).
        """
        if self.lease_of(worker) is not None:
            raise ValueError(f"worker {worker!r} already holds a lease")
        home = worker_index % self.num_queues
        cell_id = self._pop(home)
        stolen = False
        if cell_id is None:
            victim = self._victim(home)
            if victim is not None:
                cell_id = self._pop(victim, steal=True)
                stolen = cell_id is not None
        if cell_id is None:
            return None
        attempt = self.attempts.get(cell_id, 0) + 1
        self.attempts[cell_id] = attempt
        lease = Lease(
            cell_id=cell_id,
            worker=worker,
            attempt=attempt,
            granted_at=now,
            deadline=now + self.lease_seconds,
            stolen=stolen,
        )
        self.leases[cell_id] = lease
        if stolen:
            self.steals += 1
        self._event(
            "steal" if stolen else "lease",
            cell_id=cell_id,
            worker=worker,
            attempt=attempt,
        )
        return self.cells[cell_id]

    def _pop(self, queue_index: int, steal: bool = False) -> str | None:
        q = self.queues[queue_index]
        while q:
            # A thief takes from the back (the victim's coldest work);
            # the owner drains from the front — the classic deque split.
            cell_id = q.pop() if steal else q.popleft()
            if cell_id not in self.rows and cell_id not in self.errors:
                return cell_id
        return None

    def _victim(self, home: int) -> int | None:
        best, best_len = None, 0
        for i, q in enumerate(self.queues):
            if i != home and len(q) > best_len:
                best, best_len = i, len(q)
        return best

    # -- heartbeat / expiry -------------------------------------------
    def heartbeat(self, worker: str, now: float) -> None:
        """Extend the deadline of ``worker``'s lease (liveness signal)."""
        lease = self.lease_of(worker)
        if lease is not None:
            self.leases[lease.cell_id] = Lease(
                cell_id=lease.cell_id,
                worker=lease.worker,
                attempt=lease.attempt,
                granted_at=lease.granted_at,
                deadline=now + self.lease_seconds,
                stolen=lease.stolen,
            )

    def reclaim_expired(self, now: float) -> list[str]:
        """Reclaim every lease whose deadline passed; requeue the cells.

        Expiry is indistinguishable from a wedged-or-dead worker, so it
        is treated as a transient failure: the cell re-leases (home
        queue of its next claimant) unless its attempt budget is
        exhausted, in which case a synthetic ``LeaseExhausted``
        transient error row records the casualty.  If the original
        worker was merely slow and completes later, the late result is
        still accepted (first result wins; the re-leased twin becomes a
        counted duplicate).
        """
        expired = [
            lease for lease in self.leases.values() if lease.deadline <= now
        ]
        reclaimed = []
        for lease in expired:
            self.reclaims += 1
            self._event(
                "reclaim",
                cell_id=lease.cell_id,
                worker=lease.worker,
                attempt=lease.attempt,
                reason="lease-expired",
            )
            self._requeue_or_exhaust(lease, reason="lease-expired")
            reclaimed.append(lease.cell_id)
        return reclaimed

    def worker_lost(self, worker: str, now: float, reason: str = "died") -> None:
        """Reclaim the lease of a worker that will never report back.

        A process death is environmental by definition — transient —
        so the in-flight cell re-queues for another worker, bounded by
        the attempt budget.
        """
        lease = self.lease_of(worker)
        self._event(
            "worker-dead",
            worker=worker,
            cell_id=None if lease is None else lease.cell_id,
            reason=reason,
        )
        if lease is None:
            return
        self.reclaims += 1
        self._event(
            "reclaim",
            cell_id=lease.cell_id,
            worker=worker,
            attempt=lease.attempt,
            reason=reason,
        )
        self._requeue_or_exhaust(lease, reason=reason)

    def _requeue_or_exhaust(self, lease: Lease, reason: str) -> None:
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
            self._event(
                "error",
                cell_id=lease.cell_id,
                worker=lease.worker,
                attempt=lease.attempt,
                error_class="transient",
                error_type="LeaseExhausted",
            )
        else:
            # Back of the cell's home-rank queue: the next claimant is
            # whoever drains (or steals from) that queue first.
            self._home_queue(lease.cell_id).append(lease.cell_id)
            self._event(
                "requeue",
                cell_id=lease.cell_id,
                attempt=lease.attempt,
                reason=reason,
            )

    def _home_queue(self, cell_id: str) -> deque:
        return self.queues[self._rank[cell_id] % self.num_queues]

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
        regardless of who holds the paper.
        """
        if cell_id not in self.cells:
            raise ValueError(f"unknown cell {cell_id}")
        if cell_id in self.rows or cell_id in self.errors:
            self.duplicates += 1
            self._event("duplicate", cell_id=cell_id, worker=worker)
            return None
        self.leases.pop(cell_id, None)
        self._purge(cell_id)
        record = _cell_record(self.cells[cell_id], summary, attempts)
        self.rows[cell_id] = record
        self._event(
            "complete", cell_id=cell_id, worker=worker, attempt=attempts
        )
        return record

    def fail(
        self, worker: str, cell_id: str, error: dict, attempts: int, now: float
    ) -> dict | None:
        """Record one cell failure; returns an error record iff the
        cell is now finished (deterministic failure or exhausted
        budget), ``None`` if it re-leased or the report was stale.

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
            self._event("duplicate", cell_id=cell_id, worker=worker)
            return None
        lease = self.leases.get(cell_id)
        if lease is None or lease.worker != worker:
            # A reporter whose lease was reclaimed (cell re-queued, or
            # re-granted to another worker): its failure says nothing
            # the reclaim didn't already — acting on it would queue the
            # cell twice.  Late *successes* are different: complete()
            # accepts them whoever reports, first result wins.
            self._event(
                "stale-failure", cell_id=cell_id, worker=worker
            )
            return None
        del self.leases[cell_id]
        grants = self.attempts.get(cell_id, 1)
        if error.get("class") == "deterministic" or grants >= self.max_lease_attempts:
            self._purge(cell_id)
            record = _error_record(self.cells[cell_id], error, attempts)
            self.errors[cell_id] = record
            self._event(
                "error",
                cell_id=cell_id,
                worker=worker,
                attempt=grants,
                error_class=error.get("class", "transient"),
                error_type=error.get("type", "Exception"),
            )
            return record
        self._home_queue(cell_id).append(cell_id)
        self._event(
            "requeue",
            cell_id=cell_id,
            attempt=grants,
            reason=f"transient-{error.get('type', 'error')}",
        )
        return None

    def _purge(self, cell_id: str) -> None:
        """Drop a now-finished cell from any queue it still sits in."""
        for q in self.queues:
            try:
                q.remove(cell_id)
            except ValueError:
                pass

    # -- invariants (the property-test surface) -----------------------
    def check_invariants(self) -> None:
        """Assert the exactly-once partition; raises ``AssertionError``.

        Every cell is in exactly one of {queued, leased, row, error};
        no cell is both row and error; queues hold no finished or
        leased cells; every lease's attempt count is within budget.
        """
        queued = [cid for q in self.queues for cid in q]
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


def _worker_main(conn, cell_fn, options: CellOptions, retries: int) -> None:
    """Worker-process loop: recv a cell, run it guarded, send the result;
    ``None`` stops the loop."""
    try:
        while (cell := conn.recv()) is not None:
            status, payload, attempts = _guarded_cell(
                cell_fn, (cell, options), retries
            )
            conn.send((cell.cell_id, status, payload, attempts))
    except (EOFError, KeyboardInterrupt, BrokenPipeError):
        return


@dataclass
class _Worker:
    name: str
    index: int
    process: object
    conn: object

    @classmethod
    def spawn(cls, ctx, name: str, index: int, worker_args: tuple) -> "_Worker":
        parent, child = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main, args=(child, *worker_args), daemon=True
        )
        proc.start()
        child.close()  # the parent keeps only its own end
        return cls(name=name, index=index, process=proc, conn=parent)

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
    steals: int = 0
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
    retries: int = 0,
    cell_fn: Callable | None = None,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    max_lease_attempts: int = DEFAULT_MAX_LEASE_ATTEMPTS,
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
    (``auto``/``none``/``gz``/``zst``; ``None`` keeps an existing
    artifact's).  Rows stream out as results are accepted — a crash
    loses at most in-flight cells and a resume reuses the rest; a
    complete artifact is left byte-untouched.

    ``serial=True`` runs the cells in this process (one queue, canonical
    order; an exception that is not an ``Exception`` propagates to the
    caller); otherwise ``num_workers`` processes each hold one lease at
    a time.

    Worker deaths (pipe EOF) reclaim the dead worker's lease and
    respawn a replacement; lease expiry (``lease_seconds``;
    ``math.inf`` turns it off) is the backstop for wedged-but-alive
    workers.  A transient failure first
    spends ``retries`` extra in-worker attempts; deterministic failures
    become ``cell-error`` rows immediately; transient ones re-lease up
    to ``max_lease_attempts`` grants.  ``cell_fn(cell, options)``
    replaces the default executor
    (:func:`repro.analysis.sweep.execute_cell`) — the fault-injection
    seam of the tests.

    ``checkpoint_every`` + ``checkpoint_dir`` make every cell
    preemptible (see :class:`~repro.parallel.sharding.CellOptions`): a
    reclaimed or re-leased cell resumes from the victim attempt's
    newest valid snapshot instead of recomputing from round 0 —
    bit-identical either way.

    ``stop_requested`` (e.g. a
    :class:`~repro.parallel.signals.DrainFlag`) makes the coordinator
    drain gracefully: once it returns true, no new leases are granted,
    in-flight cells finish and their rows are accepted, the status
    sidecar passes through ``draining`` to ``stopped``, and a later
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
    progress = ShardStatusWriter(
        out_path,
        spec_fingerprint=spec.fingerprint,
        shard=marker[0],
        num_shards=marker[1],
        cells_total=len(cells),
    )

    if not pending and not stale:
        # Complete, canonical artifact: recompute nothing, leave the
        # bytes untouched, refresh only the status sidecar.
        progress.start(resumed=len(retained))
        progress.finish()
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
                "max_lease_attempts": int(max_lease_attempts),
                "compression": codec,
            }
        },
    )
    records: list[dict] = [
        retained[c.cell_id] for c in cells if c.cell_id in retained
    ]
    rewrite_artifact(out_path, codec, [manifest, *records])
    progress.start(resumed=len(retained))

    scheduler = SweepScheduler(
        pending,
        workers_n,
        lease_seconds=lease_seconds,
        max_lease_attempts=max_lease_attempts,
    )
    events = JsonlWriter(result.events_path, compression="none")
    events_flushed = 0

    def _drain_events() -> None:
        nonlocal events_flushed
        while events_flushed < len(scheduler.events):
            events.write_record(scheduler.events[events_flushed])
            events_flushed += 1
        events.flush()

    if cell_fn is None:
        # Deferred: repro.analysis imports this package at module scope.
        from ..analysis.sweep import execute_cell as cell_fn
    options = CellOptions(
        telemetry=spec.telemetry,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        checkpoint_keep_last=checkpoint_keep_last,
    )
    worker_args = (cell_fn, options, retries)
    ctx = mp.get_context(mp_context) if mp_context else mp.get_context()
    fleet: dict[str, _Worker] = {}
    deaths = 0
    draining = False

    fh = JsonlWriter(out_path, compression=codec, append=True)

    def _accept(record: dict, *, error: bool, attempts: int) -> None:
        records.append(record)
        if error:
            result.errors.append(record)
        else:
            result.executed.append(record["cell_id"])
        fh.write_line(_dump(record))
        fh.flush()
        progress.steals = scheduler.steals
        progress.reclaimed = scheduler.reclaims
        progress.cell_finished(error=error, attempts=attempts)

    def _report(worker: str, cell_id: str, status, payload, attempts) -> None:
        now = time.monotonic()
        if status == "ok":
            record = scheduler.complete(worker, cell_id, payload, attempts, now)
        else:
            record = scheduler.fail(worker, cell_id, payload, attempts, now)
        if record is not None:
            _accept(record, error=status != "ok", attempts=attempts)

    def _flush_synthetic_errors() -> None:
        """Error rows minted *inside* the state machine (LeaseExhausted
        on reclaim) have no worker report to accept; sweep any error
        the artifact hasn't recorded yet into it."""
        recorded = {r["cell_id"] for r in result.errors}
        for cell_id, record in scheduler.errors.items():
            if cell_id not in recorded:
                _accept(record, error=True, attempts=record["attempts"])

    def _assign(worker: _Worker) -> None:
        cell = scheduler.acquire(worker.name, worker.index, time.monotonic())
        if cell is None:
            return
        try:
            worker.conn.send(cell)
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
            # Same slot, fresh process: the replacement inherits the
            # home queue, so locality survives the respawn.
            name = f"{worker.name.split('+')[0]}+{deaths}"
            fleet[name] = _Worker.spawn(ctx, name, worker.index, worker_args)
            _assign(fleet[name])

    def _check_drain() -> bool:
        # Latch at most once; polled at every safe boundary so a worker
        # is never handed a new lease after the drain request.  Queued
        # cells stay queued for a later resume.
        nonlocal draining
        if not draining and stop_requested is not None and stop_requested():
            draining = True
            progress.draining()
        return draining

    def _run_inline() -> None:
        while (cell := scheduler.acquire("w0", 0, time.monotonic())) is not None:
            outcome = _guarded_cell(cell_fn, (cell, options), retries)
            _report("w0", cell.cell_id, *outcome)
            _drain_events()
            if _check_drain():
                return

    def _run_fleet() -> None:
        if _check_drain():
            return  # latched before the run: spawn nothing, lease nothing
        for i in range(workers_n):
            fleet[f"w{i}"] = _Worker.spawn(ctx, f"w{i}", i, worker_args)
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
    finally:
        fh.close()
        for worker in list(fleet.values()):
            worker.stop()
        _drain_events()
        events.close()

    result.steals = progress.steals = scheduler.steals
    result.reclaims = progress.reclaimed = scheduler.reclaims
    result.duplicates = scheduler.duplicates
    result.worker_deaths = deaths
    if draining and not scheduler.finished:
        progress.stopped()
    else:
        progress.finish()
    return result
