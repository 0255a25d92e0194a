"""``repro serve``: a long-running sweep coordinator over a job catalog.

The scheduler (:mod:`repro.parallel.scheduler`) runs one grid well;
this module turns it into a *service*: a directory of declarative job
files (``<name>.job.json``, each holding a
:class:`~repro.parallel.sharding.SweepSpec` payload plus run options)
that a single ``repro serve <dir>`` process drains — resuming
half-finished artifacts, healing killed workers, and publishing a
machine-readable snapshot (``serve-status.json``) after every accepted
cell so observers can consume *partial* sweeps while the grid runs.

The catalog is filesystem-native on purpose: adding work while the
server runs is ``cp fig3.job.json jobs/`` (the poll loop picks it up),
state lives entirely in the artifacts (the resume contract makes every
job idempotent — a completed job's artifact is left byte-untouched on
the next pass), and killing the server loses at most in-flight cells.

Job file schema::

    {
      "spec": { ... SweepSpec payload ... },
      "workers": 2,            // optional
      "compression": "auto",   // optional artifact codec
      "retries": 1,            // optional in-worker retries
      "lease_seconds": 300.0,  // optional
      "max_lease_attempts": 3, // optional
      "checkpoint_every": 50,  // optional: snapshot cells every N rounds
      "checkpoint_keep_last": 3
    }

A job with ``checkpoint_every`` set runs its cells *preemptibly*:
engine snapshots land under ``<dir>/checkpoints/<name>/`` and a
re-leased or drained-then-resumed cell restores the newest valid one
instead of recomputing from round 0.  ``kill -TERM`` (or Ctrl-C)
against a serve loop drains gracefully: the in-flight cells finish,
the snapshot republishes with state ``stopped``, and the process
exits cleanly — the next ``repro serve`` picks up exactly the
remaining work.

The job's name is the file stem (``fig3.job.json`` → ``fig3``); its
artifact lands at ``<dir>/artifacts/<name>.jsonl`` (plus the codec
suffix), so ``repro merge`` / ``repro status`` work on a serve
directory unchanged.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..telemetry.jsonl import (
    atomic_write_text,
    compression_suffix,
    resolve_compression,
)
from .scheduler import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_LEASE_ATTEMPTS,
    run_scheduled,
)
from .sharding import SweepSpec, load_artifact, merge_artifacts

__all__ = [
    "JOB_SUFFIX",
    "ServeReport",
    "SweepJob",
    "discover_jobs",
    "job_snapshot",
    "load_job",
    "serve_forever",
    "serve_once",
    "serve_status_path",
]

#: Catalog entries are ``<name>.job.json`` files in the serve directory.
JOB_SUFFIX = ".job.json"


@dataclass(frozen=True)
class SweepJob:
    """One catalog entry: a spec plus its run options and artifact home."""

    name: str
    spec: SweepSpec
    artifact_path: Path
    job_path: Path | None = None
    workers: int | None = None
    compression: str | None = None
    retries: int = 0
    lease_seconds: float = DEFAULT_LEASE_SECONDS
    max_lease_attempts: int = DEFAULT_MAX_LEASE_ATTEMPTS
    checkpoint_every: int | None = None
    checkpoint_dir: Path | None = None
    checkpoint_keep_last: int = 3


def serve_status_path(jobs_dir) -> Path:
    """The snapshot file the serve loop publishes atomically."""
    return Path(jobs_dir) / "serve-status.json"


def _artifact_name(name: str, compression: str | None) -> str:
    codec = resolve_compression(compression) if compression else "none"
    return f"{name}.jsonl{compression_suffix(codec)}"


def load_job(path, artifacts_dir=None) -> SweepJob:
    """Parse one ``<name>.job.json`` catalog entry.

    Unknown keys raise — a typoed option silently ignored would run the
    sweep with defaults and nobody would notice until the artifact was
    wrong.
    """
    path = Path(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or "spec" not in payload:
        raise ValueError(f"{path}: job file needs a 'spec' object")
    known = {
        "spec", "workers", "compression", "retries",
        "lease_seconds", "max_lease_attempts",
        "checkpoint_every", "checkpoint_keep_last",
    }
    unknown = set(payload) - known
    if unknown:
        raise ValueError(
            f"{path}: unknown job key(s) {sorted(unknown)}; "
            f"expected a subset of {sorted(known)}"
        )
    name = path.name[: -len(JOB_SUFFIX)]
    compression = payload.get("compression")
    base = (
        Path(artifacts_dir)
        if artifacts_dir is not None
        else path.parent / "artifacts"
    )
    raw_every = payload.get("checkpoint_every")
    checkpoint_every = int(raw_every) if raw_every else None
    return SweepJob(
        name=name,
        spec=SweepSpec.from_payload(payload["spec"]),
        artifact_path=base / _artifact_name(name, compression),
        job_path=path,
        workers=payload.get("workers"),
        compression=compression,
        retries=int(payload.get("retries", 0)),
        lease_seconds=float(payload.get("lease_seconds", DEFAULT_LEASE_SECONDS)),
        max_lease_attempts=int(
            payload.get("max_lease_attempts", DEFAULT_MAX_LEASE_ATTEMPTS)
        ),
        checkpoint_every=checkpoint_every,
        checkpoint_dir=(
            path.parent / "checkpoints" / name if checkpoint_every else None
        ),
        checkpoint_keep_last=int(payload.get("checkpoint_keep_last", 3)),
    )


def discover_jobs(jobs_dir) -> list[SweepJob]:
    """The catalog of ``*.job.json`` entries under ``jobs_dir``, by name."""
    jobs_dir = Path(jobs_dir)
    return [
        load_job(p)
        for p in sorted(jobs_dir.glob(f"*{JOB_SUFFIX}"))
    ]


def job_snapshot(job: SweepJob) -> dict:
    """The merge-so-far of one job's artifact, as a JSON-able summary.

    Reads the artifact through the tolerant reader, so a *live* or
    crashed artifact snapshots cleanly: cells with rows count done,
    error rows surface, everything else is pending.  This is the
    partial-\\ :class:`~repro.analysis.sweep.SweepResult` view — the
    ``rows`` key carries the completed summaries in canonical order.
    """
    total = len(job.spec)
    if not job.artifact_path.exists():
        return {
            "name": job.name, "state": "queued", "done": 0,
            "errors": 0, "missing": total, "total": total, "rows": [],
        }
    try:
        merged = merge_artifacts([load_artifact(job.artifact_path)])
    except ValueError:
        return {
            "name": job.name, "state": "corrupt", "done": 0,
            "errors": 0, "missing": total, "total": total, "rows": [],
        }
    done = len(merged.sweep.rows)
    state = (
        "complete"
        if merged.complete
        else "failed" if merged.errors and not merged.missing else "partial"
    )
    return {
        "name": job.name,
        "state": state,
        "done": done,
        "errors": len(merged.errors),
        "missing": len(merged.missing),
        "total": total,
        "rows": merged.sweep.rows,
    }


@dataclass
class ServeReport:
    """Outcome of one catalog pass (:func:`serve_once`)."""

    jobs: list[SweepJob] = field(default_factory=list)
    executed: int = 0
    resumed: int = 0
    errors: int = 0
    worker_deaths: int = 0
    reclaims: int = 0
    steals: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors


def _publish(jobs_dir: Path, jobs: list[SweepJob], *, state: str) -> None:
    """Atomically rewrite the serve snapshot (rows elided per job to a
    count when large would be premature tuning — partial consumers want
    the rows; that is the point of streaming merges)."""
    snapshot = {
        "kind": "serve-status",
        "state": state,
        "jobs": [job_snapshot(job) for job in jobs],
    }
    atomic_write_text(
        serve_status_path(jobs_dir), json.dumps(snapshot, sort_keys=True)
    )


def serve_once(
    jobs_dir,
    *,
    workers: int | None = None,
    poll_seconds: float = 0.1,
    on_progress=None,
    stop_requested=None,
) -> ServeReport:
    """Drain the current catalog once: run (or resume) every job.

    Completed jobs short-circuit through the resume contract without
    touching their artifacts; partially-run ones pick up where their
    artifact left off.  The serve snapshot is republished after every
    accepted cell, so ``serve-status.json`` is a live partial-sweep
    feed while a grid runs.  ``workers`` overrides any per-job setting
    (a host-capacity knob, not a job property).

    ``stop_requested`` (e.g. a
    :class:`~repro.parallel.signals.DrainFlag`) drains gracefully: the
    running job's in-flight cells finish and stream into its artifact,
    no further jobs start, and the snapshot republishes with state
    ``stopped`` — the next pass computes exactly the remaining cells.
    """
    jobs_dir = Path(jobs_dir)
    report = ServeReport(jobs=discover_jobs(jobs_dir))
    drained = False
    for job in report.jobs:
        if stop_requested is not None and stop_requested():
            drained = True
            break

        def _progress(scheduler, result, _job=job):
            state = (
                "draining"
                if stop_requested is not None and stop_requested()
                else "running"
            )
            _publish(jobs_dir, report.jobs, state=state)
            if on_progress is not None:
                on_progress(_job, scheduler, result)

        result = run_scheduled(
            job.spec,
            job.artifact_path,
            num_workers=workers if workers is not None else job.workers,
            retries=job.retries,
            lease_seconds=job.lease_seconds,
            max_lease_attempts=job.max_lease_attempts,
            compression=job.compression,
            poll_seconds=poll_seconds,
            on_progress=_progress,
            checkpoint_every=job.checkpoint_every,
            checkpoint_dir=job.checkpoint_dir,
            checkpoint_keep_last=job.checkpoint_keep_last,
            stop_requested=stop_requested,
        )
        report.executed += len(result.executed)
        report.resumed += len(result.skipped)
        report.errors += len(result.errors)
        report.worker_deaths += result.worker_deaths
        report.reclaims += result.reclaims
        report.steals += result.steals
        if stop_requested is not None and stop_requested():
            drained = True
            break
    _publish(jobs_dir, report.jobs, state="stopped" if drained else "idle")
    return report


def serve_forever(
    jobs_dir,
    *,
    workers: int | None = None,
    poll_seconds: float = 0.1,
    idle_seconds: float = 2.0,
    max_cycles: int | None = None,
    on_progress=None,
    sleep=time.sleep,
    stop_requested=None,
) -> ServeReport:
    """The always-on loop: drain the catalog, sleep, rescan, repeat.

    New job files dropped into ``jobs_dir`` are picked up on the next
    cycle; jobs already complete cost one resume short-circuit each
    (artifact bytes untouched).  ``max_cycles`` bounds the loop for
    tests and batch use (``repro serve --once`` is ``max_cycles=1``);
    ``sleep`` is injectable so tests never wait wall-clock time.
    ``stop_requested`` ends the loop at the next safe boundary (see
    :func:`serve_once`).  Returns the report of the *last* cycle.
    """
    cycles = 0
    report = ServeReport()
    while max_cycles is None or cycles < max_cycles:
        report = serve_once(
            jobs_dir,
            workers=workers,
            poll_seconds=poll_seconds,
            on_progress=on_progress,
            stop_requested=stop_requested,
        )
        cycles += 1
        if stop_requested is not None and stop_requested():
            break
        if max_cycles is not None and cycles >= max_cycles:
            break
        sleep(idle_seconds)
    return report
