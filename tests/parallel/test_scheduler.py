"""Unit tests for the work-stealing lease scheduler state machine.

These drive :class:`repro.parallel.scheduler.SweepScheduler` directly —
no processes, injected clock — so every lifecycle transition (lease,
steal, requeue, reclaim, duplicate, exhaustion) is pinned in isolation.
The process driver's integration surface lives in
``test_scheduler_chaos.py``; the exactly-once guarantee under random
interleavings in ``test_scheduler_properties.py``.
"""

import os

import pytest

from repro.config import paper_config
from repro.parallel.scheduler import (
    SCHED_EVENT_KIND,
    SweepScheduler,
    default_workers,
    run_scheduled,
    scheduler_events_path,
)
from repro.parallel.sharding import (
    CELL_ERROR_KIND,
    CELL_KIND,
    SweepCell,
    SweepSpec,
    load_artifact,
    partition_cells,
)
from repro.telemetry.jsonl import read_jsonl_tolerant


def make_cells(n: int) -> list[SweepCell]:
    """Synthetic grid cells with real (hash-derived) stable IDs."""
    return [SweepCell("proto", paper_config(seed=i)) for i in range(n)]


def drain(sched: SweepScheduler, worker="w0", index=0, now=0.0):
    """Run every remaining cell to completion through one worker."""
    while True:
        cell = sched.acquire(worker, index, now)
        if cell is None:
            return
        sched.complete(worker, cell.cell_id, {"v": cell.seed}, 1, now)


class TestConstruction:
    def test_home_queues_match_partition(self):
        cells = make_cells(7)
        sched = SweepScheduler(cells, 3)
        expected = [
            [c.cell_id for c in q] for q in partition_cells(cells, 3)
        ]
        assert [list(q) for q in sched.queues] == expected

    def test_validation(self):
        cells = make_cells(2)
        with pytest.raises(ValueError, match="num_queues"):
            SweepScheduler(cells, 0)
        with pytest.raises(ValueError, match="lease_seconds"):
            SweepScheduler(cells, 1, lease_seconds=0)
        with pytest.raises(ValueError, match="max_lease_attempts"):
            SweepScheduler(cells, 1, max_lease_attempts=0)
        with pytest.raises(ValueError, match="duplicate"):
            SweepScheduler(cells + cells[:1], 1)


class TestLeaseLifecycle:
    def test_acquire_complete_exactly_once(self):
        cells = make_cells(4)
        sched = SweepScheduler(cells, 2)
        drain(sched)
        assert sched.finished
        assert set(sched.rows) == {c.cell_id for c in cells}
        assert not sched.errors
        sched.check_invariants()

    def test_worker_cannot_hold_two_leases(self):
        sched = SweepScheduler(make_cells(3), 1)
        sched.acquire("w0", 0, 0.0)
        with pytest.raises(ValueError, match="already holds"):
            sched.acquire("w0", 0, 0.0)

    def test_acquire_exhausted_returns_none(self):
        sched = SweepScheduler(make_cells(1), 1)
        cell = sched.acquire("w0", 0, 0.0)
        assert sched.acquire("w1", 0, 0.0) is None  # only cell is leased
        sched.complete("w0", cell.cell_id, {}, 1, 0.0)
        assert sched.acquire("w1", 0, 0.0) is None  # grid finished

    def test_steal_takes_from_back_of_longest_queue(self):
        cells = make_cells(9)
        sched = SweepScheduler(cells, 3)
        # Drain w0's home queue in owner order (front first)...
        home = [c.cell_id for c in partition_cells(cells, 3)[0]]
        for expected_id in home:
            cell = sched.acquire("w0", 0, 0.0)
            assert cell.cell_id == expected_id
            sched.complete("w0", cell.cell_id, {}, 1, 0.0)
        # ...then lease one cell off queue 1 so queue 2 is strictly
        # longest: the steal must take queue 2's *back* element.
        sched.acquire("w1", 1, 0.0)
        expected = sched.queues[2][-1]
        cell = sched.acquire("w0", 0, 0.0)
        assert cell.cell_id == expected
        assert sched.leases[cell.cell_id].stolen
        assert sched.steals == 1
        sched.check_invariants()

    def test_heartbeat_extends_deadline(self):
        sched = SweepScheduler(make_cells(1), 1, lease_seconds=10.0)
        cell = sched.acquire("w0", 0, 0.0)
        assert sched.leases[cell.cell_id].deadline == 10.0
        sched.heartbeat("w0", 5.0)
        assert sched.leases[cell.cell_id].deadline == 15.0


class TestFailures:
    def test_deterministic_failure_is_final_and_never_requeued(self):
        sched = SweepScheduler(make_cells(1), 1, max_lease_attempts=3)
        cell = sched.acquire("w0", 0, 0.0)
        record = sched.fail(
            "w0", cell.cell_id,
            {"type": "ValueError", "message": "bad", "class": "deterministic"},
            1, 0.0,
        )
        assert record is not None
        assert record["kind"] == CELL_ERROR_KIND
        assert sched.finished
        assert not any(e["event"] == "requeue" for e in sched.events)
        sched.check_invariants()

    def test_transient_failure_requeues_until_exhausted(self):
        sched = SweepScheduler(make_cells(1), 1, max_lease_attempts=3)
        err = {"type": "OSError", "message": "flaky", "class": "transient"}
        for attempt in (1, 2):
            cell = sched.acquire("w0", 0, 0.0)
            assert sched.leases[cell.cell_id].attempt == attempt
            assert sched.fail("w0", cell.cell_id, err, 1, 0.0) is None
            sched.check_invariants()
        cell = sched.acquire("w0", 0, 0.0)
        record = sched.fail("w0", cell.cell_id, err, 1, 0.0)
        assert record is not None and sched.finished
        requeues = [e for e in sched.events if e["event"] == "requeue"]
        assert len(requeues) == 2

    def test_stale_failure_report_is_dropped(self):
        # w0's lease expires and the cell re-queues; w0's late failure
        # report must not queue the cell a second time.
        sched = SweepScheduler(make_cells(1), 1, lease_seconds=1.0)
        cell = sched.acquire("w0", 0, 0.0)
        assert sched.reclaim_expired(2.0) == [cell.cell_id]
        err = {"type": "OSError", "message": "late", "class": "transient"}
        assert sched.fail("w0", cell.cell_id, err, 1, 2.5) is None
        assert [e["event"] for e in sched.events if e["event"] == (
            "stale-failure"
        )] == ["stale-failure"]
        sched.check_invariants()
        # The requeued cell is still runnable exactly once.
        again = sched.acquire("w1", 0, 3.0)
        assert again.cell_id == cell.cell_id
        assert sched.acquire("w2", 0, 3.0) is None

    def test_unknown_cell_rejected(self):
        sched = SweepScheduler(make_cells(1), 1)
        with pytest.raises(ValueError, match="unknown cell"):
            sched.complete("w0", "f" * 16, {}, 1, 0.0)
        with pytest.raises(ValueError, match="unknown cell"):
            sched.fail("w0", "f" * 16, {}, 1, 0.0)


class TestReclaim:
    def test_worker_lost_requeues_its_cell(self):
        sched = SweepScheduler(make_cells(2), 1)
        cell = sched.acquire("w0", 0, 0.0)
        sched.worker_lost("w0", 1.0)
        assert sched.reclaims == 1
        assert cell.cell_id not in sched.leases
        sched.check_invariants()
        # Another worker picks the cell back up.
        ids = set()
        while (got := sched.acquire("w1", 0, 2.0)) is not None:
            ids.add(got.cell_id)
            sched.complete("w1", got.cell_id, {}, 1, 2.0)
        assert cell.cell_id in ids and sched.finished

    def test_worker_lost_without_lease_is_recorded_only(self):
        sched = SweepScheduler(make_cells(1), 1)
        sched.worker_lost("w9", 0.0)
        assert sched.reclaims == 0
        assert [e["event"] for e in sched.events] == ["worker-dead"]

    def test_reclaim_exhaustion_synthesises_error_row(self):
        sched = SweepScheduler(make_cells(1), 1, max_lease_attempts=2)
        for _ in range(2):
            cell = sched.acquire("w0", 0, 0.0)
            sched.worker_lost("w0", 1.0)
        assert sched.finished
        record = sched.errors[cell.cell_id]
        assert record["error"]["type"] == "LeaseExhausted"
        assert record["error"]["class"] == "transient"
        sched.check_invariants()

    def test_late_result_after_reclaim_accepted_once(self):
        # The original worker was slow, not dead: its result arrives
        # after the reclaim but before the re-leased twin finishes.
        # First result wins; the twin's copy is a counted duplicate.
        sched = SweepScheduler(make_cells(1), 2, lease_seconds=1.0)
        cell = sched.acquire("w0", 0, 0.0)
        sched.reclaim_expired(2.0)
        again = sched.acquire("w1", 1, 2.0)
        assert again.cell_id == cell.cell_id
        assert sched.complete("w0", cell.cell_id, {"v": 1}, 1, 2.5) is not None
        assert sched.complete("w1", cell.cell_id, {"v": 1}, 1, 3.0) is None
        assert sched.duplicates == 1
        assert len(sched.rows) == 1
        sched.check_invariants()


class TestDefaultWorkers:
    def test_explicit_value(self):
        assert default_workers(3) == 3

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            default_workers(0)

    def test_auto_leaves_headroom(self):
        w = default_workers()
        assert 1 <= w <= (os.cpu_count() or 2)

    def test_auto_counts_only_cpus_this_process_may_use(self, monkeypatch):
        # Under taskset or a cpuset the affinity set, not the host's
        # CPU count, bounds the fleet.
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        assert default_workers() == 1

    def test_clamps_to_task_count(self):
        """Regression: a 2-cell shard must not spawn cpu_count-1
        workers — the fleet is capped at one worker per cell."""
        assert default_workers(None, n_tasks=2) <= 2
        assert default_workers(8, n_tasks=3) == 3
        assert default_workers(2, n_tasks=5) == 2

    def test_task_count_keeps_floor_of_one(self):
        assert default_workers(None, n_tasks=1) == 1
        with pytest.raises(ValueError):
            default_workers(None, n_tasks=0)


SPEC = SweepSpec(
    protocols=("direct",),
    lambdas=(4.0, 8.0),
    seeds=(0, 1),
    rounds=2,
    telemetry=True,
)


class TestRunScheduled:
    def test_artifact_is_mergeable_and_manifest_carries_provenance(
        self, tmp_path
    ):
        out = tmp_path / "sched.jsonl"
        result = run_scheduled(SPEC, out, num_workers=2, poll_seconds=0.02)
        assert result.ok and len(result.executed) == len(SPEC)
        art = load_artifact(out)
        assert (art.manifest["shard"], art.manifest["num_shards"]) == (0, 0)
        sched_block = art.manifest["scheduler"]
        assert sched_block["workers"] == 2
        assert sched_block["compression"] == "none"
        ids = [r["cell_id"] for r in art.cell_rows]
        assert len(ids) == len(set(ids)) == len(SPEC)

    def test_full_resume_leaves_bytes_untouched(self, tmp_path):
        out = tmp_path / "sched.jsonl"
        run_scheduled(SPEC, out, num_workers=2, poll_seconds=0.02)
        before = out.read_bytes()
        again = run_scheduled(SPEC, out, num_workers=2, poll_seconds=0.02)
        assert out.read_bytes() == before
        assert not again.executed
        assert len(again.skipped) == len(SPEC)

    def test_events_sidecar_is_schema_clean(self, tmp_path):
        out = tmp_path / "sched.jsonl"
        run_scheduled(SPEC, out, num_workers=2, poll_seconds=0.02)
        events = read_jsonl_tolerant(scheduler_events_path(out))
        assert events, "no scheduler events recorded"
        assert all(e["kind"] == SCHED_EVENT_KIND for e in events)
        assert [e["seq"] for e in events] == list(
            range(1, len(events) + 1)
        )
        completes = [e for e in events if e["event"] == "complete"]
        assert len(completes) == len(SPEC)

    def test_compressed_artifact_round_trips(self, tmp_path):
        out = tmp_path / "sched.jsonl.gz"
        result = run_scheduled(
            SPEC, out, num_workers=2, compression="gz", poll_seconds=0.02
        )
        assert result.ok
        art = load_artifact(out)
        assert len(art.cell_rows) == len(SPEC)
        assert art.manifest["scheduler"]["compression"] == "gz"
        # Resume keeps the sniffed codec without restating it.
        before = out.read_bytes()
        run_scheduled(SPEC, out, num_workers=2, poll_seconds=0.02)
        assert out.read_bytes() == before

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="retries"):
            run_scheduled(SPEC, tmp_path / "x.jsonl", retries=-1)


class TestTornTailResume:
    """Satellite: the resume path reads artifacts through the shared
    torn-tail-tolerant reader — a crash mid-append costs exactly the
    torn record, plain or compressed."""

    @pytest.mark.parametrize("codec,suffix", [("none", ""), ("gz", ".gz")])
    def test_truncated_final_row_recomputed_only(
        self, tmp_path, codec, suffix
    ):
        out = tmp_path / f"sched.jsonl{suffix}"
        run_scheduled(
            SPEC, out, num_workers=1,
            compression=codec, poll_seconds=0.02,
        )
        raw = out.read_bytes()
        # Tear the artifact mid final record (crash mid-append).
        out.write_bytes(raw[: len(raw) - 7])
        result = run_scheduled(
            SPEC, out, num_workers=1, poll_seconds=0.02
        )
        # The torn tail cost at most the trailer + final record; every
        # fully-written row resumed.
        assert len(result.skipped) >= len(SPEC) - 1
        art = load_artifact(out)
        ids = [r["cell_id"] for r in art.cell_rows]
        assert len(ids) == len(set(ids)) == len(SPEC)
        assert art.records[-1]["kind"] == "shard-telemetry"

    def test_interior_corruption_is_not_silently_healed(self, tmp_path):
        out = tmp_path / "sched.jsonl"
        run_scheduled(SPEC, out, num_workers=1, poll_seconds=0.02)
        lines = out.read_text().splitlines()
        lines[2] = "CORRUPTED"
        out.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="malformed JSONL"):
            load_artifact(out)
