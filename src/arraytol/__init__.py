"""Tolerance analysis of linear phased arrays with bounded excitation errors.

Builds inclusive power-pattern bounds by summing per-element phasor regions
in the complex plane, then converts the region geometry into ring-occupancy
probabilities, sidelobe-level and peak intervals, all validated against a
seeded Monte Carlo oracle.
"""

from .errors import ConfigError, ValidationError
from .iams import PowerBoundsCurve, power_bounds, power_db
from .model import (
    AngularGrid,
    ArrayScenario,
    ExcitationInterval,
    load_config,
    scenario_from_config,
    scenario_from_tolerances,
    uniform_grid,
)
from .montecarlo import McReport, ProbeHistogram, run_mc, sample_realization, sample_stream
from .pia import FeatureReport, feature_report, mean_probabilities

__version__ = "0.1.0"

__all__ = [
    "AngularGrid",
    "ArrayScenario",
    "ConfigError",
    "ExcitationInterval",
    "FeatureReport",
    "McReport",
    "PowerBoundsCurve",
    "ProbeHistogram",
    "ValidationError",
    "feature_report",
    "load_config",
    "mean_probabilities",
    "power_bounds",
    "power_db",
    "run_mc",
    "sample_realization",
    "sample_stream",
    "scenario_from_config",
    "scenario_from_tolerances",
    "uniform_grid",
]
