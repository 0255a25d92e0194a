"""Deterministic fault injection: seeded, schedulable chaos.

``FaultPlan`` (pure data, fingerprintable) describes timed fault
events; ``PlanInjector`` applies one against live simulation state at
the engine's phase boundaries; the catalog names reusable chaos
recipes for the CLI (``--faults``), the scenario registry, and sweep
sharding.  Without a plan the engine holds :data:`NULL_INJECTOR` and
the no-fault path is bit-identical to the golden traces (enforced by
``scripts/check_fault_null_equivalence.py`` in CI).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".catalog": ("FAULT_SCENARIOS", "build_fault_plan", "fault_scenario_names"),
    ".injector": ("NULL_INJECTOR", "NullInjector", "PlanInjector"),
    ".metrics": ("per_round_pdr", "rounds_to_recover"),
    ".plan": ("EVENT_KINDS", "FaultEvent", "FaultPlan"),
})
