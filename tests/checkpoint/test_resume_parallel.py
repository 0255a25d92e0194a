"""Preemptible sweep cells: checkpoint resume through the parallel layer.

Covers the run_cell resume contract (tag derivation, telemetry
carry-over, the resume sidecar), graceful drain of run_shard and
run_scheduled, and the chaos headline: a SIGKILLed scheduler worker
whose lease is reclaimed resumes the cell from its snapshot and
re-executes only the rounds after it.
"""

import json
import os
import signal

import pytest

from repro.analysis.sweep import PROTOCOLS, execute_cell, run_cell
from repro.checkpoint import CheckpointWriter, snapshot_paths
from repro.parallel import (
    DrainFlag,
    SweepSpec,
    load_artifact,
    load_status,
    run_scheduled,
    run_shard,
    shard_status_path,
)
from repro.simulation import SimulationEngine
from repro.telemetry import Telemetry
from repro.telemetry.manifest import config_fingerprint
from repro.telemetry.registry import deterministic_view

#: Directory holding the kill-once marker of the chaos test (workers
#: inherit the environment, so the path crosses the fork/spawn).
KILL_DIR_ENV = "REPRO_CKPT_CHAOS_KILL_DIR"


def _cell_config(protocol, lam, seed, rounds, faults=None, routing="direct"):
    """The exact config run_cell runs — the resume tag contract."""
    spec = SweepSpec(
        protocols=(protocol,), lambdas=(lam,), seeds=(seed,), rounds=rounds,
        faults=faults, routing=routing,
    )
    return spec.cells()[0].config


def _seed_snapshot(
    checkpoint_dir,
    *,
    protocol="qlec",
    lam=4.0,
    seed=0,
    rounds=6,
    upto=3,
    telemetry=False,
    faults=None,
    routing="direct",
):
    """Simulate an interrupted run_cell attempt: run ``upto`` rounds of
    the identical cell and leave its snapshot under the run_cell tag."""
    config = _cell_config(protocol, lam, seed, rounds, faults, routing)
    tel = Telemetry() if telemetry else None
    engine = SimulationEngine(config, PROTOCOLS[protocol](), telemetry=tel)
    for _ in range(upto):
        engine.run_round()
    tag = f"{protocol}-{config_fingerprint(config)}"
    CheckpointWriter(checkpoint_dir, tag, every=1).snapshot(engine)
    return tag


def _resume_log(checkpoint_dir, tag):
    path = checkpoint_dir / f"{tag}.resume.jsonl"
    if not path.exists():
        return []
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


class TestRunCellResume:
    def test_resumes_from_seeded_snapshot_bit_identical(self, tmp_path):
        clean = run_cell(
            "qlec", 4.0, 0, rounds=6, telemetry=True,
            faults="ch-kill", routing="tree",
        )
        tag = _seed_snapshot(
            tmp_path, telemetry=True, faults="ch-kill", routing="tree"
        )
        resumed = run_cell(
            "qlec", 4.0, 0, rounds=6, telemetry=True,
            faults="ch-kill", routing="tree",
            checkpoint_every=2, checkpoint_dir=str(tmp_path),
        )
        clean_tel = clean.pop("telemetry")
        resumed_tel = resumed.pop("telemetry")
        assert resumed == clean
        assert deterministic_view(resumed_tel) == deterministic_view(clean_tel)
        log = _resume_log(tmp_path, tag)
        assert len(log) == 1
        assert log[0]["kind"] == "checkpoint-resume"
        assert log[0]["round_index"] == 3  # restored, not recomputed

    def test_mismatched_snapshot_is_ignored(self, tmp_path):
        # A snapshot of a *different* cell (other seed) under its own
        # tag: the resuming cell must not pick it up.
        _seed_snapshot(tmp_path, seed=1)
        clean = run_cell("qlec", 4.0, 0, rounds=6)
        fresh = run_cell(
            "qlec", 4.0, 0, rounds=6,
            checkpoint_every=2, checkpoint_dir=str(tmp_path),
        )
        assert fresh == clean

    def test_no_checkpoint_kwargs_changes_nothing(self, tmp_path):
        assert run_cell("qlec", 4.0, 0, rounds=4) == run_cell(
            "qlec", 4.0, 0, rounds=4,
            checkpoint_every=None, checkpoint_dir=str(tmp_path),
        )
        assert not list(tmp_path.iterdir())  # every=None writes nothing


class TestRunShardDrain:
    SPEC = dict(
        protocols=("qlec", "leach"), lambdas=(4.0,), seeds=(0, 1), rounds=2
    )

    def test_drain_stops_at_cell_boundary_and_resumes(self, tmp_path):
        spec = SweepSpec(**self.SPEC)
        out = tmp_path / "shard.jsonl"
        result = run_shard(
            spec, 1, 1, out, serial=True, stop_requested=lambda: True
        )
        assert 1 <= len(result.executed) < len(spec)
        assert load_status(shard_status_path(out))["state"] == "stopped"

        # Reference artifact from an uninterrupted run.
        ref = tmp_path / "ref.jsonl"
        run_shard(spec, 1, 1, ref, serial=True)

        resumed = run_shard(spec, 1, 1, out, serial=True)
        assert len(resumed.skipped) == len(result.executed)
        assert len(resumed.executed) == len(spec) - len(result.executed)
        assert load_status(shard_status_path(out))["state"] == "complete"
        rows = [r["summary"] for r in load_artifact(out).records
                if r.get("kind") == "cell"]
        ref_rows = [r["summary"] for r in load_artifact(ref).records
                    if r.get("kind") == "cell"]
        assert rows == ref_rows

    def test_unlatched_flag_changes_nothing(self, tmp_path):
        spec = SweepSpec(**self.SPEC)
        flag = DrainFlag()
        result = run_shard(
            spec, 1, 1, tmp_path / "s.jsonl", serial=True,
            stop_requested=flag,
        )
        assert len(result.executed) == len(spec)
        assert (
            load_status(shard_status_path(tmp_path / "s.jsonl"))["state"]
            == "complete"
        )


def _kill_once_cell(*args):
    """Scheduler chaos cell: SIGKILL the worker once, then delegate.

    Module-level so it pickles into spawned workers; the marker file
    makes the kill happen exactly once across respawns."""
    kill_dir = os.environ.get(KILL_DIR_ENV)
    if kill_dir:
        marker = os.path.join(kill_dir, "killed")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass
        else:
            os.close(fd)
            os.kill(os.getpid(), signal.SIGKILL)
    return execute_cell(*args)


class TestSchedulerSnapshotReclaim:
    def test_reclaimed_lease_resumes_from_snapshot(self, tmp_path, monkeypatch):
        """The chaos headline: kill the worker, reclaim the lease, and
        prove via the resume sidecar that the replacement re-executed
        only the rounds after the seeded snapshot."""
        ckpt_dir = tmp_path / "ckpt"
        ckpt_dir.mkdir()
        tag = _seed_snapshot(ckpt_dir, rounds=6, upto=3)
        monkeypatch.setenv(KILL_DIR_ENV, str(tmp_path))

        spec = SweepSpec(protocols=("qlec",), lambdas=(4.0,), seeds=(0,),
                         rounds=6)
        out = tmp_path / "sched.jsonl"
        result = run_scheduled(
            spec, out, num_workers=1, cell_fn=_kill_once_cell,
            checkpoint_every=3, checkpoint_dir=ckpt_dir,
        )
        assert result.ok and result.worker_deaths >= 1
        assert (tmp_path / "killed").exists()

        log = _resume_log(ckpt_dir, tag)
        assert log and log[0]["round_index"] == 3

        clean = run_cell("qlec", 4.0, 0, rounds=6)
        rows = [r["summary"] for r in load_artifact(out).records
                if r.get("kind") == "cell"]
        assert rows == [clean]

    def test_scheduler_drain_leaves_resumable_artifact(self, tmp_path):
        spec = SweepSpec(protocols=("qlec", "leach"), lambdas=(4.0,),
                         seeds=(0, 1), rounds=2)
        out = tmp_path / "sched.jsonl"

        # Latched mid-run, once the status sidecar counts a finished cell.
        def one_cell_done():
            return load_status(shard_status_path(out))["done"] >= 1

        drained = run_scheduled(
            spec, out, num_workers=2, stop_requested=one_cell_done
        )
        assert 1 <= len(drained.executed) < len(spec)
        assert load_status(shard_status_path(out))["state"] == "stopped"

        finished = run_scheduled(spec, out, num_workers=2)
        assert len(finished.skipped) == len(drained.executed)
        assert len(finished.executed) == len(spec) - len(drained.executed)
        assert load_status(shard_status_path(out))["state"] == "complete"


class TestServeDrain:
    """A drain requested before run_scheduled serves its first lease."""

    def test_pre_latched_flag_runs_nothing(self, tmp_path):
        spec = SweepSpec(protocols=("qlec", "leach"), lambdas=(4.0,),
                         seeds=(0,), rounds=2)
        out = tmp_path / "sched.jsonl"
        flag = DrainFlag()
        flag.request(signal.SIGTERM)
        # The worker-process path polls the flag before spawning a worker.
        report = run_scheduled(
            spec, out, num_workers=1, serial=False, stop_requested=flag
        )
        assert report.executed == []
        assert load_status(shard_status_path(out))["state"] == "stopped"

        finished = run_scheduled(spec, out, num_workers=1, serial=False)
        assert len(finished.executed) == len(spec)
        assert load_status(shard_status_path(out))["state"] == "complete"


class TestStatusStates:
    def test_draining_and_stopped_rows(self, tmp_path):
        from repro.parallel import ShardStatusWriter

        writer = ShardStatusWriter(
            tmp_path / "a.jsonl", spec_fingerprint="f" * 16,
            shard=1, num_shards=1, cells_total=4,
        )
        writer.start()
        writer.cell_finished()
        writer.draining()
        assert load_status(shard_status_path(tmp_path / "a.jsonl"))[
            "state"
        ] == "draining"
        writer.stopped()
        last = load_status(shard_status_path(tmp_path / "a.jsonl"))
        assert last["state"] == "stopped"
        assert last["done"] == 1  # progress survives into the terminal row


class TestDrainSignals:
    def test_flag_latches_once_and_records_signum(self):
        flag = DrainFlag()
        assert not flag() and not flag.requested
        flag.request(signal.SIGTERM)
        flag.request(signal.SIGINT)
        assert flag() and flag.requested
        assert flag.signum == signal.SIGTERM  # first signal wins

    def test_handlers_installed_and_restored(self):
        from repro.parallel import drain_on_signals

        before = signal.getsignal(signal.SIGTERM)
        with drain_on_signals() as flag:
            assert signal.getsignal(signal.SIGTERM) is not before
            os.kill(os.getpid(), signal.SIGTERM)
            assert flag.requested and flag.signum == signal.SIGTERM
            # First signal re-installed the previous handler (escalation).
            assert signal.getsignal(signal.SIGTERM) is before
        assert signal.getsignal(signal.SIGTERM) is before
