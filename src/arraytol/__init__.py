"""Tolerance analysis of linear phased arrays with bounded excitation errors.

Builds inclusive power-pattern bounds by summing per-element phasor regions
in the complex plane, then converts the region geometry into ring-occupancy
probabilities, sidelobe-level and peak intervals, all validated against a
seeded Monte Carlo oracle.
"""

from .errors import ConfigError, ValidationError
from .geometry import (
    ConvexPolygon,
    contains_point,
    convex_polygon,
    disc_polygon_intersection_area,
    distance_bounds_to_origin,
    minkowski_sum_many,
    polygon_area,
    polygonize_interval_phasor,
)
from .iams import (
    PowerBoundsCurve,
    interval_af_curve,
    nominal_af,
    nominal_af_curve,
    power_bounds,
    power_db,
)
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
from .pia import (
    FeatureReport,
    ProbabilityMap,
    RingPartition,
    feature_report,
    mean_probabilities,
    probability_map,
    region_probabilities,
    ring_partition,
)

__version__ = "0.1.0"

__all__ = [
    "AngularGrid",
    "ArrayScenario",
    "ConfigError",
    "ConvexPolygon",
    "ExcitationInterval",
    "FeatureReport",
    "McReport",
    "PowerBoundsCurve",
    "ProbabilityMap",
    "ProbeHistogram",
    "RingPartition",
    "ValidationError",
    "contains_point",
    "convex_polygon",
    "disc_polygon_intersection_area",
    "distance_bounds_to_origin",
    "feature_report",
    "interval_af_curve",
    "load_config",
    "mean_probabilities",
    "minkowski_sum_many",
    "nominal_af",
    "nominal_af_curve",
    "polygon_area",
    "polygonize_interval_phasor",
    "power_bounds",
    "power_db",
    "probability_map",
    "region_probabilities",
    "ring_partition",
    "run_mc",
    "sample_realization",
    "sample_stream",
    "scenario_from_config",
    "scenario_from_tolerances",
    "uniform_grid",
]
