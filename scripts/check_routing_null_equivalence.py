#!/usr/bin/env python
"""CI gate: the routing substrate must cost nothing when unused.

Three checks:

1. **Golden equivalence** — every protocol's default
   (``routing=direct``) run reproduces
   ``tests/simulation/golden_trace.json`` round for round.  The inert
   DIRECT router may not move a single draw, joule, or packet relative
   to the pre-substrate traces.
2. **Scalar/batched equivalence under active routing** — the tree and
   qspt substrates produce the identical result summary (and routing
   summary) on the scalar and batched slot paths.
3. **No stray observability** — a direct run emits no path records and
   no ``routing/`` metrics; active runs emit both.

Usage: PYTHONPATH=src python scripts/check_routing_null_equivalence.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import sys

from repro.analysis import PROTOCOLS
from repro.config import ROUTING_CHOICES, RoutingConfig, paper_config
from repro.core import QLECProtocol
from repro.simulation import TraceRecorder
from repro.simulation.engine import SimulationEngine, run_simulation
from repro.telemetry import Telemetry

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
    exact on every integer field, rel=1e-9 on floats."""
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
        # Say it explicitly: the default under test IS routing=direct.
        cfg = dataclasses.replace(cfg, routing=RoutingConfig(kind="direct"))
        trace = TraceRecorder()
        result = SimulationEngine(
            cfg, PROTOCOLS[name](), backend="numpy", trace=trace
        ).run()
        if "routing" in result.extras:
            return fail(f"{name}: direct run grew a routing summary")
        if trace.paths:
            return fail(f"{name}: direct run emitted path records")
        if not rows_match([rs.row() for rs in result.per_round], golden[name]):
            return fail(
                f"{name}: routing=direct run diverged from the golden "
                "trace — the inert-router path is not bit-identical"
            )
        print(f"ok golden {name}")
    return 0


def check_scalar_batched_routing() -> int:
    for kind in ROUTING_CHOICES:
        if kind == "direct":
            continue
        cfg = dataclasses.replace(
            paper_config(seed=SEED, rounds=10),
            routing=RoutingConfig(kind=kind),
        )
        batched = run_simulation(cfg, QLECProtocol(), batched=True)
        scalar = run_simulation(cfg, QLECProtocol(), batched=False)
        if batched.summary() != scalar.summary():
            return fail(f"{kind}: scalar and batched summaries differ")
        if batched.extras.get("routing") != scalar.extras.get("routing"):
            return fail(f"{kind}: scalar and batched routing summaries differ")
        print(
            f"ok routing {kind} (pdr={batched.delivery_rate:.4f}, "
            f"broadcasts={batched.extras['routing']['broadcasts']})"
        )
    return 0


def check_observability() -> int:
    cfg = dataclasses.replace(
        paper_config(seed=SEED, rounds=4),
        routing=RoutingConfig(kind="tree"),
    )
    tel = Telemetry()
    trace = TraceRecorder()
    result = SimulationEngine(
        cfg, QLECProtocol(), telemetry=tel, trace=trace
    ).run()
    snap = tel.snapshot()
    if not trace.paths:
        return fail("tree run emitted no path records")
    if "routing/hops" not in snap:
        return fail("tree run emitted no routing/hops histogram")
    if result.extras.get("routing", {}).get("kind") != "tree":
        return fail("tree run's result extras carry no routing summary")
    print(f"ok observability tree ({len(trace.paths)} path records)")

    cfg = dataclasses.replace(cfg, routing=RoutingConfig(kind="direct"))
    tel = Telemetry()
    trace = TraceRecorder()
    SimulationEngine(cfg, QLECProtocol(), telemetry=tel, trace=trace).run()
    if trace.paths or any(k.startswith("routing/") for k in tel.snapshot()):
        return fail("direct run leaked routing observability")
    print("ok observability direct (silent)")
    return 0


def main() -> int:
    return (
        check_golden_equivalence()
        or check_scalar_batched_routing()
        or check_observability()
    )


if __name__ == "__main__":
    sys.exit(main())
