"""Tests for live sweep progress: the run log folded by ``load_status``.

The unit tests drive the pure :class:`SweepScheduler` (whose events,
plus the driver's lifecycle markers, are the run log) with an injected
clock; the integration tests read the ``<artifact>.events.jsonl`` log
a real run leaves.
"""

import json

import pytest

from repro.analysis.sweep import execute_cell
from repro.config import paper_config
from repro.parallel.scheduler import (
    EWMA_ALPHA,
    SweepScheduler,
    find_status_files,
    load_status,
    scheduler_events_path,
)
from repro.parallel.sharding import SweepCell, SweepSpec, load_artifact, run_shard
from repro.telemetry.jsonl import read_jsonl_tolerant

SPEC = SweepSpec(
    protocols=("direct",),
    lambdas=(4.0, 8.0),
    seeds=(0, 1),
    rounds=2,
)

TRANSIENT = {"type": "OSError", "message": "flaky", "class": "transient"}


def _failing_cell(cell, options):
    if cell.seed == 1:
        raise RuntimeError("injected status-test fault")
    return execute_cell(cell, options)


class _Log:
    """A state machine over ``cells_total - resumed`` synthetic cells,
    its run log opened by the driver's ``start`` marker at ``t = 0``."""

    def __init__(self, tmp_path, *, cells_total=4, resumed=0, shard=(1, 2)):
        self.path = scheduler_events_path(tmp_path / "shard.jsonl")
        cells = [
            SweepCell("proto", paper_config(seed=i))
            for i in range(cells_total - resumed)
        ]
        self.sched = SweepScheduler(cells)
        self.sched.event(
            "start",
            0.0,
            spec_fingerprint="0" * 16,
            shard=shard[0],
            num_shards=shard[1],
            cells_total=cells_total,
            resumed=resumed,
            unix=1754650000.0,
        )

    def finish_next(self, now: float, *, error=None) -> None:
        """Lease the front cell when the log's last event happened (a
        worker asks for its next cell as soon as it is free) and report
        it ok (or failed) at ``now``."""
        cell = self.sched.acquire("w0", self.sched.events[-1]["t"])
        attempt = self.sched.attempts[cell.cell_id]
        if error is None:
            self.sched.complete("w0", cell.cell_id, {}, attempt, now)
        else:
            self.sched.fail("w0", cell.cell_id, error, attempt, now)

    def status(self) -> dict:
        self.path.write_text(
            "".join(json.dumps(e) + "\n" for e in self.sched.events)
        )
        return load_status(self.path)


class TestWriterUnit:
    def test_lifecycle_rows(self, tmp_path):
        log = _Log(tmp_path, cells_total=2)
        rows = [log.status()]
        log.finish_next(1.0)
        rows.append(log.status())
        log.finish_next(2.0, error=TRANSIENT)  # re-leased ...
        log.finish_next(3.0, error=TRANSIENT)  # ... then an error row
        rows.append(log.status())
        log.sched.event("finish", 4.0)
        rows.append(log.status())
        assert [r["state"] for r in rows] == (
            ["running", "running", "running", "complete"]
        )
        last = rows[-1]
        assert last["done"] == 2
        assert last["failed"] == 1
        assert last["retried"] == 1
        assert last["ewma_cell_seconds"] is not None
        assert last["updated_unix"] == 1754650004.0

    def test_eta_null_before_first_cell_zero_when_done(self, tmp_path):
        log = _Log(tmp_path, cells_total=1)
        assert log.status()["eta_seconds"] is None
        log.finish_next(1.0)
        assert log.status()["eta_seconds"] == 0.0

    def test_first_cell_time_starts_at_its_lease(self, tmp_path):
        # The coordinator spends 0.274 s importing before it leases the
        # first cell, which then takes 0.006 s: the import is not cell
        # time, so it must not inflate the first EWMA sample.
        log = _Log(tmp_path, cells_total=3)
        cell = log.sched.acquire("w0", 0.274)
        log.sched.complete("w0", cell.cell_id, {}, 1, 0.28)
        row = log.status()
        assert row["ewma_cell_seconds"] == pytest.approx(0.006)
        assert row["eta_seconds"] == pytest.approx(0.012)
        # Later samples are the gaps between finished cells.
        log.finish_next(0.29)
        assert log.status()["ewma_cell_seconds"] == pytest.approx(
            0.006 + EWMA_ALPHA * (0.01 - 0.006)
        )

    def test_resumed_counts_as_done(self, tmp_path):
        row = _Log(tmp_path, resumed=3).status()
        assert row["resumed"] == 3
        assert row["done"] == 3

    def test_load_status_tolerates_torn_tail(self, tmp_path):
        log = _Log(tmp_path)
        log.finish_next(1.0)
        log.status()
        with open(log.path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "sched-event", "seq"')
        assert load_status(log.path)["done"] == 1

    def test_load_status_empty_raises(self, tmp_path):
        empty = tmp_path / "x.events.jsonl"
        empty.write_text("not json at all\n")
        with pytest.raises(ValueError):
            load_status(empty)


class TestRunShardIntegration:
    def test_sidecar_matches_artifact(self, tmp_path):
        out = tmp_path / "shard.jsonl"
        run_shard(SPEC, 1, 1, out, serial=True)
        sidecar = scheduler_events_path(out)
        assert sidecar.exists()
        status = load_status(sidecar)
        art = load_artifact(out)
        assert status["state"] == "complete"
        assert status["done"] == len(art.cell_rows) == len(SPEC)
        assert status["failed"] == len(art.error_rows) == 0
        assert status["spec_fingerprint"] == SPEC.fingerprint

    def test_failed_cells_counted(self, tmp_path):
        out = tmp_path / "shard.jsonl"
        run_shard(
            SPEC, 1, 1, out, serial=True, cell_fn=_failing_cell, retries=0
        )
        status = load_status(scheduler_events_path(out))
        art = load_artifact(out)
        assert status["state"] == "complete"
        assert status["failed"] == len(art.error_rows) == 2
        assert status["done"] == len(SPEC)

    def test_fully_resumed_rerun_refreshes_sidecar(self, tmp_path):
        out = tmp_path / "shard.jsonl"
        run_shard(SPEC, 1, 1, out, serial=True)
        scheduler_events_path(out).unlink()
        before = out.read_bytes()
        run_shard(SPEC, 1, 1, out, serial=True)
        # Artifact untouched (the resume contract) …
        assert out.read_bytes() == before
        # … but the run log is rewritten for the re-invocation.
        events = read_jsonl_tolerant(scheduler_events_path(out))
        assert [e["event"] for e in events] == ["start", "finish"]
        status = load_status(scheduler_events_path(out))
        assert status["state"] == "complete"
        assert status["resumed"] == len(SPEC)
        assert status["done"] == len(SPEC)


class TestEtaUnderEwma:
    def test_eta_monotone_for_constant_cell_times(self, tmp_path):
        # One tick per cell: the EWMA settles immediately, so the ETA
        # must fall strictly with every finished cell — a status line
        # that says "9 minutes left" may never later say "12".
        log = _Log(tmp_path, cells_total=8, shard=(1, 1))
        etas = []
        for tick in range(1, 9):
            log.finish_next(float(tick))
            etas.append(log.status()["eta_seconds"])
        assert etas == sorted(etas, reverse=True)
        assert len(set(etas)) == len(etas)
        assert etas[-1] == 0.0

    def test_eta_monotone_when_cells_speed_up(self, tmp_path):
        # Cell times falling (warm caches): the EWMA lags but the ETA
        # must still never rise.
        log = _Log(tmp_path, cells_total=5, shard=(1, 1))
        now, etas = 0.0, []
        for dt in (8.0, 4.0, 2.0, 1.0, 0.5):
            now += dt
            log.finish_next(now)
            etas.append(log.status()["eta_seconds"])
        assert all(b <= a for a, b in zip(etas, etas[1:]))


class TestSchedulerStatus:
    def test_scheduler_counters_flow_into_rows(self, tmp_path):
        log = _Log(tmp_path, cells_total=2, shard=(0, 0))
        log.sched.acquire("w0", 1.0)
        log.sched.worker_lost("w0", 2.0)
        log.finish_next(3.0)
        row = log.status()
        assert (row["shard"], row["num_shards"]) == (0, 0)
        assert row["reclaimed"] == 1

    def test_run_scheduled_writes_live_sidecar(self, tmp_path):
        from repro.parallel.scheduler import run_scheduled

        out = tmp_path / "sched.jsonl"
        result = run_scheduled(SPEC, out, num_workers=2, poll_seconds=0.02)
        status = load_status(scheduler_events_path(out))
        assert status["state"] == "complete"
        assert status["done"] == len(SPEC)
        assert status["failed"] == 0
        assert status["reclaimed"] == result.reclaims
        assert (status["shard"], status["num_shards"]) == (0, 0)


class TestFindStatusFiles:
    def test_resolution_modes(self, tmp_path):
        out = tmp_path / "sub" / "shard.jsonl"
        run_shard(SPEC, 1, 1, out, serial=True)
        sidecar = scheduler_events_path(out)
        # Directory scan, explicit run log, artifact path — all resolve
        # to the same file, deduplicated.
        found = find_status_files([tmp_path, sidecar, out])
        assert found == [sidecar]

    def test_missing_paths_yield_nothing(self, tmp_path):
        assert find_status_files([tmp_path / "nope.jsonl"]) == []
