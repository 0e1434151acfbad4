"""Link-level simulator for cooperative multi-cell massive MIMO downlink
with two-stage precoding: interference alignment for the shared cell-edge
area and soft space reuse for the cell centers.

The package root exposes the scenario and the experiment pipeline; the
layers (``channel``, ``prebeam``, ``ia``, ``precode``, ``power``,
``training``, ``division``) are imported as modules."""

from .scenario import ClusterSpec, ScenarioConfig, default_scenario, load_scenario
from .harness import (FIGURES, ExperimentSpec, ServicePlan, SystemGeometry, TrialError,
                      build_geometry, build_plan, draw_channels, evaluate_rates, run,
                      solve_links)

__all__ = [
    "ClusterSpec", "ScenarioConfig", "default_scenario", "load_scenario",
    "FIGURES", "ExperimentSpec", "ServicePlan", "SystemGeometry", "TrialError",
    "build_geometry", "build_plan", "draw_channels", "evaluate_rates", "run",
    "solve_links",
]

__version__ = "0.1.0"
