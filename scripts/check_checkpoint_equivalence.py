#!/usr/bin/env python
"""CI gate: crash-safe checkpointing is bit-identical end to end.

The headline invariant of ``repro.checkpoint``: a run that is SIGKILLed
at an arbitrary round and resumed from its newest valid round-boundary
snapshot produces the *same* ``SimulationResult`` — summary, per-round
trace rows, the run-total latency sample, faults, routing summary, and
telemetry deterministic-view — as a run that was never interrupted.
Checked for both the scalar and batched engines with a fault plan and
tree routing active, i.e. every RNG stream (protocol, faults, routing)
must survive the round trip.

Also checks the null path: a run with checkpointing enabled is
bit-identical to one without (snapshots are pure observation).

The kill leg re-executes this file as a subprocess (``--child``) that
checkpoints every CKPT_EVERY rounds and SIGKILLs itself after round
KILL_ROUND — deliberately *not* a snapshot boundary, so the resume has
to re-execute the rounds between the newest snapshot and the crash.
"""

import dataclasses
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.checkpoint import latest_valid, run_signature, snapshot_paths
from repro.config import RoutingConfig, paper_config
from repro.core import QLECProtocol
from repro.faults import build_fault_plan
from repro.simulation import SimulationEngine
from repro.telemetry import Telemetry
from repro.telemetry.manifest import config_fingerprint
from repro.telemetry.registry import deterministic_view

ROUNDS = 8
SEED = 0
CKPT_EVERY = 2
KILL_ROUND = 5  # not a multiple of CKPT_EVERY: resume must re-execute 5..8
TAG = "gate"


def fail(msg: str) -> int:
    print(f"FAIL {msg}", file=sys.stderr)
    return 1


def gate_config():
    config = dataclasses.replace(
        paper_config(seed=SEED, rounds=ROUNDS),
        routing=RoutingConfig(kind="tree"),
    )
    return config.replace(faults=build_fault_plan("ch-kill", config))


def gate_engine(config, *, batched: bool) -> SimulationEngine:
    return SimulationEngine(
        config, QLECProtocol(), batched=batched, telemetry=Telemetry()
    )


def round_rows(result) -> list[dict]:
    return [dataclasses.asdict(r) for r in result.per_round]


def child(checkpoint_dir: Path, batched: bool) -> None:
    """Run checkpointed, then die hard right after KILL_ROUND."""
    engine = gate_engine(gate_config(), batched=batched)

    def kill_switch() -> bool:
        if engine.state.round_index >= KILL_ROUND:
            os.kill(os.getpid(), signal.SIGKILL)
        return False

    engine.run(
        checkpoint_every=CKPT_EVERY,
        checkpoint_dir=checkpoint_dir,
        checkpoint_tag=TAG,
        stop_requested=kill_switch,
    )
    raise SystemExit("unreachable: the kill switch never fired")


def compare(resumed, reference, resumed_tel, reference_tel, leg: str) -> int:
    if resumed.summary() != reference.summary():
        return fail(f"{leg}: resumed summary diverged")
    if round_rows(resumed) != round_rows(reference):
        return fail(f"{leg}: resumed per-round trace rows diverged")
    got = resumed.packets.latency_sample
    want = reference.packets.latency_sample
    if got.count != want.count or got.values.tobytes() != want.values.tobytes():
        return fail(f"{leg}: resumed run-total latency sample diverged")
    if resumed.faults != reference.faults:
        return fail(f"{leg}: resumed fault report diverged")
    if resumed.extras.get("routing") != reference.extras.get("routing"):
        return fail(f"{leg}: resumed routing summary diverged")
    if deterministic_view(resumed_tel.snapshot()) != deterministic_view(
        reference_tel.snapshot()
    ):
        return fail(f"{leg}: telemetry deterministic-view diverged")
    return 0


def check_kill_resume(batched: bool) -> int:
    leg = "batched" if batched else "scalar"
    config = gate_config()
    reference_engine = gate_engine(config, batched=batched)
    reference = reference_engine.run()

    with tempfile.TemporaryDirectory() as tmp:
        checkpoint_dir = Path(tmp)
        proc = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--child",
                str(checkpoint_dir),
                "1" if batched else "0",
            ],
            env=os.environ.copy(),
            capture_output=True,
            text=True,
        )
        if proc.returncode != -signal.SIGKILL:
            return fail(
                f"{leg}: child exited {proc.returncode}, expected SIGKILL"
                f"\n{proc.stderr}"
            )
        found = latest_valid(
            checkpoint_dir,
            TAG,
            config_fingerprint=config_fingerprint(config),
            run=run_signature(reference_engine),
        )
        if found is None:
            return fail(f"{leg}: no valid snapshot survived the kill")
        _, header, engine = found
        if header["round_index"] >= KILL_ROUND:
            return fail(
                f"{leg}: snapshot at round {header['round_index']} — the "
                f"kill at round {KILL_ROUND} should predate it"
            )
        resumed = engine.run()
        rc = compare(
            resumed, reference, engine.telemetry,
            reference_engine.telemetry, leg,
        )
        if rc:
            return rc
        print(
            f"ok kill-resume {leg} (killed r{KILL_ROUND}, resumed "
            f"r{header['round_index']}, pdr={resumed.delivery_rate:.4f})"
        )
    return 0


def check_null_equivalence() -> int:
    config = gate_config()
    plain_engine = gate_engine(config, batched=True)
    plain = plain_engine.run()
    with tempfile.TemporaryDirectory() as tmp:
        ckpt_engine = gate_engine(config, batched=True)
        checkpointed = ckpt_engine.run(
            checkpoint_every=CKPT_EVERY, checkpoint_dir=Path(tmp),
            checkpoint_tag=TAG,
        )
        if not snapshot_paths(Path(tmp), TAG):
            return fail("null: checkpointing run wrote no snapshots")
        rc = compare(
            checkpointed, plain, ckpt_engine.telemetry,
            plain_engine.telemetry, "null",
        )
        if rc:
            return rc
    print("ok null (checkpointing run == plain run)")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--child":
        child(Path(argv[1]), batched=argv[2] == "1")
        return 0
    return (
        check_null_equivalence()
        or check_kill_resume(batched=True)
        or check_kill_resume(batched=False)
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
