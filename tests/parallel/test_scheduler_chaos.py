"""Chaos and equivalence acceptance tests for the scheduled sweep.

Real process violence: a worker SIGKILLs itself mid-cell (the
coordinator sees the pipe die, reclaims the lease, respawns the slot,
and the cell reruns exactly once), a cell raises a deterministic
error (an immediate ``cell-error`` row, never re-leased), and — the
paper-level invariant — a chaos-ridden scheduled run, healed and
resumed, merges bit-for-bit equal to the serial sweep and to a
static-sharded run on every deterministic metric.
"""

import os
import signal
from pathlib import Path

from repro.analysis.sweep import execute_cell, sweep_from_spec
from repro.parallel.scheduler import (
    run_scheduled,
    scheduler_events_path,
)
from repro.parallel.sharding import (
    CELL_ERROR_KIND,
    SweepSpec,
    load_artifact,
    merge_artifacts,
    run_shard,
)
from repro.telemetry import deterministic_view
from repro.telemetry.jsonl import read_jsonl_tolerant

SPEC = SweepSpec(
    protocols=("direct",),
    lambdas=(4.0, 8.0),
    seeds=(0, 1, 2, 3),
    rounds=2,
    telemetry=True,
)

#: Directory holding the kill-once marker; set by tests that want a
#: worker death.  The marker makes the SIGKILL one-shot: the re-leased
#: attempt finds it and computes normally.
KILL_DIR_ENV = "REPRO_TEST_SCHED_KILL_DIR"
#: When set, the deterministically-failing cell is healed.
HEAL_ENV = "REPRO_TEST_SCHED_HEAL"

#: The victim cells (module-level so the chaos is deterministic).
KILL_SEED, FAIL_SEED = 0, 1
CHAOS_LAMBDA = 4.0


def _chaos_cell(cell, options):
    kill_dir = os.environ.get(KILL_DIR_ENV)
    if kill_dir and cell.seed == KILL_SEED and cell.lam == CHAOS_LAMBDA:
        marker = Path(kill_dir) / "killed-once"
        if not marker.exists():
            marker.write_text("x")
            os.kill(os.getpid(), signal.SIGKILL)
    if (
        cell.seed == FAIL_SEED
        and cell.lam == CHAOS_LAMBDA
        and not os.environ.get(HEAL_ENV)
    ):
        raise ValueError("injected deterministic cell failure")
    return execute_cell(cell, options)


def _cell_ids_by_seed(spec):
    return {
        (c.lam, c.seed): c.cell_id for c in spec.cells()
    }


class TestSigkillMidCell:
    def test_lease_reclaimed_and_cell_reruns_exactly_once(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(KILL_DIR_ENV, str(tmp_path))
        monkeypatch.setenv(HEAL_ENV, "1")
        out = tmp_path / "sched.jsonl"
        result = run_scheduled(
            SPEC, out, num_workers=2,
            cell_fn=_chaos_cell, poll_seconds=0.02,
        )
        assert (tmp_path / "killed-once").exists(), "chaos never fired"
        assert result.worker_deaths == 1
        assert result.reclaims == 1
        assert result.ok
        assert not result.errors

        # Exactly-once in the merged artifact: every cell of the grid
        # appears once, including the one whose first worker died.
        art = load_artifact(out)
        ids = [r["cell_id"] for r in art.cell_rows]
        assert len(ids) == len(set(ids)) == len(SPEC)
        killed_id = _cell_ids_by_seed(SPEC)[(CHAOS_LAMBDA, KILL_SEED)]
        assert ids.count(killed_id) == 1

        # The event log tells the full story for the killed cell:
        # lease -> worker-dead -> reclaim -> requeue -> ... -> complete.
        events = read_jsonl_tolerant(scheduler_events_path(out))
        story = [
            e["event"] for e in events if e.get("cell_id") == killed_id
        ]
        assert story.count("complete") == 1
        assert "reclaim" in story and "requeue" in story
        assert any(e["event"] == "worker-dead" for e in events)

    def test_chaos_artifact_equals_clean_run(self, tmp_path, monkeypatch):
        """A worker death must not perturb the artifact contents: the
        rerun computes the same deterministic row."""
        monkeypatch.setenv(HEAL_ENV, "1")
        clean = tmp_path / "clean" / "sched.jsonl"
        run_scheduled(
            SPEC, clean, num_workers=2,
            cell_fn=_chaos_cell, poll_seconds=0.02,
        )
        monkeypatch.setenv(KILL_DIR_ENV, str(tmp_path))
        chaotic = tmp_path / "chaos" / "sched.jsonl"
        run_scheduled(
            SPEC, chaotic, num_workers=2,
            cell_fn=_chaos_cell, poll_seconds=0.02,
        )
        a = merge_artifacts([clean]).require_complete()
        b = merge_artifacts([chaotic]).require_complete()
        assert a.sweep.rows == b.sweep.rows
        assert deterministic_view(a.sweep.telemetry) == deterministic_view(
            b.sweep.telemetry
        )


class TestDeterministicFailure:
    def test_error_row_immediately_and_never_releases(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(HEAL_ENV, raising=False)
        monkeypatch.delenv(KILL_DIR_ENV, raising=False)
        out = tmp_path / "sched.jsonl"
        result = run_scheduled(
            SPEC, out, num_workers=2,
            cell_fn=_chaos_cell, poll_seconds=0.02,
        )
        assert not result.ok
        assert len(result.errors) == 1
        record = result.errors[0]
        assert record["kind"] == CELL_ERROR_KIND
        assert record["error"]["type"] == "ValueError"
        assert record["error"]["class"] == "deterministic"
        assert record["attempts"] == 1

        failed_id = _cell_ids_by_seed(SPEC)[(CHAOS_LAMBDA, FAIL_SEED)]
        events = read_jsonl_tolerant(scheduler_events_path(out))
        story = [
            e["event"] for e in events if e.get("cell_id") == failed_id
        ]
        # One grant, one terminal error — no requeue, no second lease.
        assert story == ["lease", "error"]
        # The other cells all completed.
        art = load_artifact(out)
        assert len(art.cell_rows) == len(SPEC) - 1

    def test_heal_resume_recomputes_only_the_errored_cell(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(HEAL_ENV, raising=False)
        monkeypatch.delenv(KILL_DIR_ENV, raising=False)
        out = tmp_path / "sched.jsonl"
        run_scheduled(
            SPEC, out, num_workers=2,
            cell_fn=_chaos_cell, poll_seconds=0.02,
        )
        failed_id = _cell_ids_by_seed(SPEC)[(CHAOS_LAMBDA, FAIL_SEED)]

        monkeypatch.setenv(HEAL_ENV, "1")
        healed = run_scheduled(
            SPEC, out, num_workers=2,
            cell_fn=_chaos_cell, poll_seconds=0.02,
        )
        assert healed.executed == [failed_id]
        assert len(healed.skipped) == len(SPEC) - 1
        assert healed.ok
        merge_artifacts([out]).require_complete()


class TestScheduledEqualsShardedEqualsSerial:
    def test_three_way_equivalence_through_chaos(
        self, tmp_path, monkeypatch
    ):
        """The acceptance invariant: serial sweep, static 2-shard run,
        and a scheduled run that survived one worker SIGKILL and one
        deterministic failure (healed + resumed) agree bit for bit on
        every deterministic metric."""
        serial = sweep_from_spec(SPEC, serial=True)

        shards = [
            run_shard(
                SPEC, k, 2, tmp_path / f"shard-{k}of2.jsonl", serial=True
            )
            for k in (1, 2)
        ]
        sharded = merge_artifacts(
            [r.path for r in shards]
        ).require_complete()

        # Chaos pass: one transient SIGKILL, one deterministic failure.
        monkeypatch.setenv(KILL_DIR_ENV, str(tmp_path))
        monkeypatch.delenv(HEAL_ENV, raising=False)
        out = tmp_path / "sched.jsonl"
        chaos = run_scheduled(
            SPEC, out, num_workers=2,
            cell_fn=_chaos_cell, poll_seconds=0.02,
        )
        assert chaos.worker_deaths == 1, "transient kill never fired"
        assert len(chaos.errors) == 1, "deterministic failure never fired"
        # Only the transient cell re-leased; the deterministic one
        # errored on its single grant.
        assert chaos.reclaims == 1
        assert chaos.errors[0]["attempts"] == 1

        # Heal and resume: recompute exactly the errored cell.
        monkeypatch.setenv(HEAL_ENV, "1")
        healed = run_scheduled(
            SPEC, out, num_workers=2,
            cell_fn=_chaos_cell, poll_seconds=0.02,
        )
        assert len(healed.executed) == 1 and healed.ok

        scheduled = merge_artifacts([out]).require_complete()
        assert scheduled.sweep.rows == serial.rows
        assert sharded.sweep.rows == serial.rows
        assert deterministic_view(
            scheduled.sweep.telemetry
        ) == deterministic_view(serial.telemetry)
        assert deterministic_view(
            sharded.sweep.telemetry
        ) == deterministic_view(serial.telemetry)
