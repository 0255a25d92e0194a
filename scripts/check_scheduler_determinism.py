#!/usr/bin/env python
"""CI gate: a chaos-ridden scheduled sweep must merge back to serial.

Runs one small grid under the lease scheduler with two injected
casualties — one worker SIGKILLed mid-cell (transient: the lease must
be reclaimed and only that cell re-leased) and one deterministic cell
failure (an immediate ``cell-error`` row, never re-leased) — then heals
the deterministic fault, resumes, and diffs rows and deterministic
telemetry against the serial sweep.  A clean scheduled pass and a
gzip-compressed pass are checked the same way, plus the resume
contract: re-running a complete scheduled artifact must recompute
nothing and leave its bytes untouched.  Any drift fails the build:
scheduler determinism is a contract, not a best effort.

Usage: PYTHONPATH=src python scripts/check_scheduler_determinism.py [workdir]
"""

from __future__ import annotations

import os
import signal
import sys
import tempfile
from pathlib import Path

from repro.analysis.sweep import execute_cell, sweep_from_spec
from repro.parallel.scheduler import run_scheduled
from repro.parallel.sharding import SweepSpec, merge_artifacts
from repro.telemetry import deterministic_view

SPEC = SweepSpec(
    protocols=("direct",),
    lambdas=(4.0, 8.0),
    seeds=(0, 1, 2, 3),
    rounds=2,
    telemetry=True,
)

KILL_DIR_ENV = "REPRO_GATE_KILL_DIR"
HEAL_ENV = "REPRO_GATE_HEAL"
KILL_SEED, FAIL_SEED = 0, 1
CHAOS_LAMBDA = 4.0


def chaos_cell(cell, options):
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


def fail(msg: str) -> int:
    print(f"FAIL {msg}", file=sys.stderr)
    return 1


def check_merge(path: Path, serial, label: str) -> int:
    merged = merge_artifacts([path])
    if not merged.complete:
        return fail(
            f"{label}: merge incomplete "
            f"(missing {merged.missing}, errors {merged.errors})"
        )
    if merged.sweep.rows != serial.rows:
        return fail(f"{label}: merged rows differ from serial run")
    if deterministic_view(merged.sweep.telemetry) != deterministic_view(
        serial.telemetry
    ):
        return fail(f"{label}: merged telemetry differs from serial run")
    return 0


def main(argv: list[str]) -> int:
    workdir = Path(argv[0]) if argv else Path(tempfile.mkdtemp(prefix="sched-"))
    workdir.mkdir(parents=True, exist_ok=True)
    serial = sweep_from_spec(SPEC, serial=True)

    # -- clean scheduled pass + resume contract ------------------------
    # Chaos disarmed: no kill marker dir, fault healed.
    os.environ.pop(KILL_DIR_ENV, None)
    os.environ[HEAL_ENV] = "1"
    clean = workdir / "clean.jsonl"
    result = run_scheduled(
        SPEC, clean, num_workers=2, cell_fn=chaos_cell,
        poll_seconds=0.02,
    )
    if not result.ok or len(result.executed) != len(SPEC):
        return fail(f"clean: run incomplete ({result.errors})")
    if rc := check_merge(clean, serial, "clean"):
        return rc
    before = clean.read_bytes()
    resumed = run_scheduled(
        SPEC, clean, num_workers=2, cell_fn=chaos_cell, poll_seconds=0.02
    )
    if resumed.executed:
        return fail(f"clean: resume recomputed {resumed.executed}")
    if clean.read_bytes() != before:
        return fail("clean: resume rewrote artifact bytes")
    print(f"ok: clean scheduled run — {len(SPEC)} cells, merge == serial, "
          "resume touched nothing")

    # -- chaos pass: one SIGKILL + one deterministic failure -----------
    os.environ[KILL_DIR_ENV] = str(workdir)
    os.environ.pop(HEAL_ENV, None)
    chaotic = workdir / "chaos.jsonl"
    chaos = run_scheduled(
        SPEC, chaotic, num_workers=2, cell_fn=chaos_cell,
        poll_seconds=0.02,
    )
    if chaos.worker_deaths != 1:
        return fail(f"chaos: expected 1 worker death, saw {chaos.worker_deaths}")
    if chaos.reclaims != 1:
        return fail(
            "chaos: expected exactly the transient cell re-leased, "
            f"saw {chaos.reclaims} reclaim(s)"
        )
    if len(chaos.errors) != 1:
        return fail(f"chaos: expected 1 error row, saw {len(chaos.errors)}")
    err = chaos.errors[0]
    if err["error"]["class"] != "deterministic" or err["attempts"] != 1:
        return fail(f"chaos: deterministic failure re-leased: {err}")
    print("ok: chaos pass — 1 worker death reclaimed, deterministic "
          "failure errored on its single grant")

    # -- heal + resume: recompute only the errored cell ----------------
    os.environ[HEAL_ENV] = "1"
    healed = run_scheduled(
        SPEC, chaotic, num_workers=2, cell_fn=chaos_cell,
        poll_seconds=0.02,
    )
    if not healed.ok:
        return fail(f"healed: still erroring ({healed.errors})")
    if len(healed.executed) != 1:
        return fail(
            f"healed: expected exactly 1 recomputed cell, "
            f"got {healed.executed}"
        )
    if rc := check_merge(chaotic, serial, "healed chaos"):
        return rc
    print("ok: healed resume — recomputed 1 cell, merge == serial")

    # -- compressed pass -----------------------------------------------
    packed = workdir / "packed.jsonl.gz"
    result = run_scheduled(
        SPEC, packed, num_workers=2, cell_fn=chaos_cell,
        compression="gz", poll_seconds=0.02,
    )
    if not result.ok:
        return fail(f"gz: run incomplete ({result.errors})")
    if rc := check_merge(packed, serial, "gz"):
        return rc
    print("ok: gz-compressed scheduled run — merge == serial")

    print("ok: scheduler determinism holds through kills, faults, and codecs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
