#!/usr/bin/env python
"""CI gate: the fault subsystem must cost nothing when unused.

Two checks, both bit-exact:

1. **Golden equivalence** — every protocol's default (no-plan) run
   reproduces ``tests/simulation/golden_trace.json`` round for round.
   The NULL-injector path may not move a single draw, joule, or packet
   relative to the pre-fault-subsystem traces.
2. **Scalar/batched equivalence under chaos** — every catalog fault
   scenario produces the identical result summary (and fault summary)
   on the scalar and batched slot paths, so chaos never becomes an
   excuse for kernel divergence.

Usage: PYTHONPATH=src python scripts/check_fault_null_equivalence.py
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

from repro.analysis import PROTOCOLS
from repro.config import paper_config
from repro.core import QLECProtocol
from repro.faults import build_fault_plan, fault_scenario_names
from repro.simulation import run_simulation
from repro.simulation.engine import SimulationEngine

GOLDEN = (
    pathlib.Path(__file__).resolve().parents[1]
    / "tests" / "simulation" / "golden_trace.json"
)
ROUNDS = 5
SEED = 0


def fail(msg: str) -> int:
    print(f"FAIL {msg}", file=sys.stderr)
    return 1


def rows_match(got: list[dict], want: list[dict]) -> bool:
    """Same comparison contract as tests/simulation/test_golden_trace.py:
    exact on every integer field, rel=1e-9 on floats (summation-order
    noise on the energy accumulators predates this subsystem)."""
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        for key, val in w.items():
            if isinstance(val, float):
                if not math.isclose(g[key], val, rel_tol=1e-9, abs_tol=0.0):
                    return False
            elif g[key] != val:
                return False
    return True


def check_golden_equivalence() -> int:
    golden = json.loads(GOLDEN.read_text())
    for name in sorted(PROTOCOLS):
        cfg = paper_config(seed=SEED, rounds=ROUNDS)
        assert cfg.faults is None  # the default path under test
        result = SimulationEngine(
            cfg, PROTOCOLS[name](), backend="numpy"
        ).run()
        if result.faults is not None:
            return fail(f"{name}: no-plan run grew a fault summary")
        if not rows_match([rs.row() for rs in result.per_round], golden[name]):
            return fail(
                f"{name}: no-plan run diverged from the golden trace — "
                "the NULL-injector path is not bit-identical"
            )
        print(f"ok golden {name}")
    return 0


def check_scalar_batched_chaos() -> int:
    for scenario in fault_scenario_names():
        cfg = paper_config(seed=SEED, rounds=12)
        cfg = cfg.replace(faults=build_fault_plan(scenario, cfg))
        batched = run_simulation(cfg, QLECProtocol(), batched=True)
        scalar = run_simulation(cfg, QLECProtocol(), batched=False)
        if batched.summary() != scalar.summary():
            return fail(f"{scenario}: scalar and batched summaries differ")
        if batched.faults != scalar.faults:
            return fail(f"{scenario}: scalar and batched fault summaries differ")
        print(f"ok chaos {scenario} (pdr={batched.delivery_rate:.4f})")
    return 0


def main() -> int:
    return check_golden_equivalence() or check_scalar_batched_chaos()


if __name__ == "__main__":
    sys.exit(main())
