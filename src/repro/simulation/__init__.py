"""Simulation layer: state, traffic, engine, metrics."""

from .engine import SimulationEngine, run_simulation
from .metrics import RoundStats, SimulationResult
from .scenarios import SCENARIOS, build_scenario, scenario_names
from .state import NetworkState
from .traffic import PoissonTraffic

__all__ = [
    "NetworkState",
    "SCENARIOS",
    "build_scenario",
    "scenario_names",
    "PoissonTraffic",
    "RoundStats",
    "SimulationEngine",
    "SimulationResult",
    "run_simulation",
]
