#!/usr/bin/env python
"""CI gate: freshly measured benchmarks must not regress the baselines.

Benchmark legs publish machine-readable ``BENCH_<name>.json`` records
into ``benchmarks/results/``; the repo commits reference copies of the
same records at its root.  This gate compares fresh against committed
and fails on:

* a **throughput drop** of more than :data:`DROP_TOLERANCE` on any
  throughput-like key (``node_rounds_per_sec``, ``speedup``) relative
  to the committed baseline;
* an **RSS ceiling breach** — fresh ``peak_rss_mb`` above the
  *baseline's* ``rss_ceiling_mb`` (the committed ceiling is the
  contract, whatever the fresh record claims);
* a **floor breach** — fresh values below the absolute floors the
  records themselves carry (``throughput_floor``, ``speedup_floor``);
* an **import-budget breach** — a fresh command loading more
  ``repro.*`` modules (``commands[<name>].repro_modules``) than the
  *baseline's* ``modules_ceiling[<name>]``.

A benchmark with no committed baseline (new bench, not yet anchored)
or no fresh record (leg not run on this host) is skipped with a
warning rather than failed: hosts differ in which optional legs they
run, and anchoring a new bench is a separate, deliberate commit.  The
relative-drop tolerance is deliberately loose — CI runners are noisy —
while the absolute floors catch catastrophic regressions exactly.

Usage::

    PYTHONPATH=src python scripts/check_bench_regression.py \
        [--fresh-dir benchmarks/results] [--baseline-dir .]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Keys compared relatively (fresh must reach 1 - DROP_TOLERANCE of base).
THROUGHPUT_KEYS = ("node_rounds_per_sec", "speedup")
#: Allowed relative throughput drop before the gate fails.  Same-host
#: re-runs of the slot-kernel bench have been observed to swing ~20%
#: (scalar-loop timing noise), so anything tighter than 25% would flake;
#: the absolute floors below catch real regressions exactly.
DROP_TOLERANCE = 0.25
#: Absolute floors carried in the records themselves: floor key ->
#: measured key it bounds.
FLOOR_KEYS = {
    "throughput_floor": "node_rounds_per_sec",
    "speedup_floor": "speedup",
}


def load_bench(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare(name: str, fresh: dict, base: dict) -> list[str]:
    """Failure messages for one benchmark pair (empty = pass)."""
    failures: list[str] = []
    for key in THROUGHPUT_KEYS:
        if key not in base:
            continue
        if key not in fresh:
            failures.append(f"{name}: fresh record lacks {key!r}")
            continue
        floor = (1.0 - DROP_TOLERANCE) * base[key]
        if fresh[key] < floor:
            failures.append(
                f"{name}: {key} dropped >{DROP_TOLERANCE:.0%}: "
                f"fresh {fresh[key]:.2f} < {floor:.2f} "
                f"(baseline {base[key]:.2f})"
            )
    ceiling = base.get("rss_ceiling_mb")
    if ceiling is not None and "peak_rss_mb" in fresh:
        if fresh["peak_rss_mb"] > ceiling:
            failures.append(
                f"{name}: peak_rss_mb {fresh['peak_rss_mb']:.1f} breaches "
                f"the committed ceiling {ceiling:.1f}"
            )
    for command, ceiling in base.get("modules_ceiling", {}).items():
        loaded = fresh.get("commands", {}).get(command, {}).get("repro_modules")
        if loaded is None:
            failures.append(f"{name}: fresh record lacks {command!r} modules")
        elif loaded > ceiling:
            failures.append(
                f"{name}: {command} loads {loaded} repro modules, above "
                f"the committed ceiling {ceiling}"
            )
    for floor_key, value_key in FLOOR_KEYS.items():
        floor = fresh.get(floor_key)
        if floor is not None and value_key in fresh:
            if fresh[value_key] < floor:
                failures.append(
                    f"{name}: {value_key} {fresh[value_key]:.2f} below "
                    f"its absolute floor {floor:.2f}"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh-dir", type=Path,
                        default=Path("benchmarks/results"))
    parser.add_argument("--baseline-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)

    fresh_paths = sorted(args.fresh_dir.glob("BENCH_*.json"))
    if not fresh_paths:
        print(f"WARNING: no fresh BENCH_*.json under {args.fresh_dir}; "
              "nothing to gate", file=sys.stderr)
        return 0

    failures: list[str] = []
    compared = 0
    for fresh_path in fresh_paths:
        name = fresh_path.name
        base_path = args.baseline_dir / name
        if not base_path.exists():
            print(f"WARNING: {name}: no committed baseline at {base_path}; "
                  "skipped (anchor it in a deliberate commit)",
                  file=sys.stderr)
            continue
        fresh = load_bench(fresh_path)
        base = load_bench(base_path)
        msgs = compare(name, fresh, base)
        failures.extend(msgs)
        compared += 1
        verdict = "FAIL" if msgs else "ok"
        summary = ", ".join(
            f"{k}={fresh[k]:.2f} (base {base[k]:.2f})"
            for k in THROUGHPUT_KEYS if k in base and k in fresh
        )
        print(f"{verdict}: {name} {summary}")

    if not compared:
        print("WARNING: no benchmark had both a fresh record and a "
              "committed baseline; the gate checked nothing",
              file=sys.stderr)
        return 0
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    if failures:
        return 1
    print(f"bench-regression gate: {compared} benchmark(s) within "
          f"{DROP_TOLERANCE:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
