"""Shared fixtures: the 16-element Taylor test scenario and its full analysis."""

from __future__ import annotations

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from arraytol import (
    feature_report,
    mean_probabilities,
    power_bounds,
    probability_map,
    scenario_from_tolerances,
    uniform_grid,
)

from helpers import taylor_taper


@pytest.fixture(scope="session")
def taylor16_scenario():
    """16 elements, half-wavelength spacing, -25 dB nbar=3 taper, 1% / 3 deg errors."""
    amps = taylor_taper(16)
    return scenario_from_tolerances(
        [(float(a), 0.0) for a in amps], xi=0.01, gamma=math.radians(3.0), spacing=0.5
    )


@pytest.fixture(scope="session")
def grid501():
    return uniform_grid(501)


@pytest.fixture(scope="session")
def taylor16_analysis(taylor16_scenario, grid501):
    """Full pipeline on the 501-sample grid, with the K=5 path timed end to end."""
    t0 = time.perf_counter()
    bounds = power_bounds(taylor16_scenario, grid501, arc_points=8)
    pmap5 = probability_map(bounds, 5)
    means5 = mean_probabilities(pmap5)
    k5_seconds = time.perf_counter() - t0

    pmap10 = probability_map(bounds, 10)
    report = feature_report(bounds, pmap5)
    return SimpleNamespace(
        scenario=taylor16_scenario,
        grid=grid501,
        bounds=bounds,
        pmap5=pmap5,
        pmap10=pmap10,
        means5=means5,
        means10=mean_probabilities(pmap10),
        report=report,
        k5_seconds=k5_seconds,
    )


@pytest.fixture(scope="session")
def small_scenario():
    """6-element symmetric taper, cheap enough for fuzz-style checks."""
    amps = [0.5, 0.8, 1.0, 1.0, 0.8, 0.5]
    return scenario_from_tolerances(
        [(a, 0.0) for a in amps], xi=0.02, gamma=math.radians(4.0), spacing=0.5
    )
