"""Behavioral simulator of a DLL-based mesochronous clock synchronizer."""

from .experiments import FalseLockReport, false_lock_experiment, sweep
from .harness import RunMetrics, run
from .scenario import (
    Scenario,
    ScenarioError,
    apply_settings,
    defaults_130nm,
    defaults_65nm,
    load_scenario,
)

__all__ = [
    "FalseLockReport",
    "RunMetrics",
    "Scenario",
    "ScenarioError",
    "apply_settings",
    "defaults_130nm",
    "defaults_65nm",
    "false_lock_experiment",
    "load_scenario",
    "run",
    "sweep",
]

__version__ = "0.1.0"
