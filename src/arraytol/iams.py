"""Interval array factor as a convex region per direction, and power-pattern bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .geometry import (
    ConvexPolygon,
    modulus_bounds,
    polygonize_interval_phasor,
    rotated_minkowski_sums,
)
from .model import AngularGrid, ArrayScenario

_TWO_PI = 2.0 * math.pi
_ROUNDING = 2.0 * float(np.finfo(np.float64).eps)

# Range of the largest region modulus that the geometry represents: the
# ring areas take products of about modulus**4, which stay normal doubles
# (1e-288 to 1e288) inside it.
_MODULUS_RANGE = (1e-72, 1e72)


@dataclass(frozen=True)
class PowerBoundsCurve:
    """Per-direction inclusive bounds of the radiated power pattern.

    The bounds of scenario over grid: linear power bounds plus dB values
    normalized so the nominal pattern peaks at 0 dB; a zero lower bound
    maps to -inf dB.  vertices and n_vertices hold the regions the bounds
    were taken from, in grid order, in the padded-row format of
    arraytol.geometry.
    """

    scenario: ArrayScenario = field(repr=False)
    grid: AngularGrid
    vertices: np.ndarray = field(repr=False)
    p_lo: np.ndarray = field(repr=False)
    p_hi: np.ndarray = field(repr=False)
    p_lo_db: np.ndarray = field(repr=False)
    p_hi_db: np.ndarray = field(repr=False)
    nominal_db: np.ndarray = field(repr=False)
    modulus_lo: np.ndarray = field(repr=False)
    modulus_hi: np.ndarray = field(repr=False)
    n_vertices: np.ndarray = field(repr=False)
    peak_power: float


def nominal_af(scenario: ArrayScenario, u: float) -> complex:
    """Crisp array factor: sum of nominal phasors with the steering progression."""
    if not abs(u) <= 1.0:
        raise ValidationError(f"direction u={u} must lie in [-1, 1]")
    total = 0.0 + 0.0j
    for n, el in enumerate(scenario.elements):
        psi = _TWO_PI * scenario.spacing * n * u
        total += el.nominal_amplitude * complex(
            math.cos(el.nominal_phase + psi), math.sin(el.nominal_phase + psi)
        )
    return total


def nominal_af_curve(scenario: ArrayScenario, grid: AngularGrid) -> np.ndarray:
    """Vectorized nominal array factor over a grid."""
    n = np.arange(scenario.n_elements)
    amps = np.array([el.nominal_amplitude for el in scenario.elements])
    phases = np.array([el.nominal_phase for el in scenario.elements])
    steering = _TWO_PI * scenario.spacing * np.outer(n, grid.samples)
    return (amps[:, None] * np.exp(1j * (phases[:, None] + steering))).sum(axis=0)


def interval_af_curve(
    scenario: ArrayScenario, grid: AngularGrid, arc_points: int = 8
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Array-factor regions at every grid sample: (vertices, n_vertices, modulus_lo, modulus_hi).

    Each element's sector is polygonized once; at direction u it is that
    polygon rotated by the steering phase 2*pi*spacing*n*u, and the region,
    their Minkowski sum, contains the nominal array factor.  One batched
    Minkowski sum covers the whole grid and returns its regions in the
    padded-row format.  The modulus bounds are widened by the
    rounding_allowance of the sectors.
    """
    sectors = element_sectors(scenario, arc_points)
    psi = _TWO_PI * scenario.spacing * np.outer(grid.samples, np.arange(scenario.n_elements))
    vertices, n_vertices = rotated_minkowski_sums(sectors, psi)
    lo, hi = modulus_bounds(vertices, n_vertices)
    slack = rounding_allowance(sectors)
    return vertices, n_vertices, np.maximum(lo - slack, 0.0), hi + slack


def element_sectors(scenario: ArrayScenario, arc_points: int = 8) -> list[ConvexPolygon]:
    """Each element's excitation sector as a covering polygon, in element order."""
    return [
        polygonize_interval_phasor(
            el.amplitude_lo, el.amplitude_hi, el.phase_lo, el.phase_hi, arc_points
        )
        for el in scenario.elements
    ]


def rounding_allowance(sectors: list[ConvexPolygon]) -> float:
    """Modulus widening that keeps rounded phasor sums inside the bounds.

    Summing N phasors in floating point moves the sum by up to about
    N * eps * (sum of their moduli), both in the region sums and wherever a
    realization is evaluated; the allowance is twice that, with each
    sector's modulus taken as its farthest vertex.
    """
    return _ROUNDING * len(sectors) * sum(float(np.abs(s.vertices).max()) for s in sectors)


def power_db(power, peak_power: float):
    """Linear power to dB relative to the peak; 0 maps to -inf."""
    p = np.asarray(power, dtype=np.float64)
    out = np.full(p.shape, -np.inf)
    pos = p > 0.0
    out[pos] = 10.0 * np.log10(p[pos] / peak_power)
    if out.shape == ():
        return float(out)
    return out


def power_bounds(
    scenario: ArrayScenario, grid: AngularGrid, arc_points: int = 8
) -> PowerBoundsCurve:
    """Inclusive power-pattern bounds over a grid, in linear power and dB.

    A largest region modulus outside _MODULUS_RANGE raises
    ValidationError; inside it the power bounds, and the nominal peak they
    contain, are finite.
    """
    vertices, n_vertices, modulus_lo, modulus_hi = interval_af_curve(scenario, grid, arc_points)
    smallest, largest = _MODULUS_RANGE
    far = float(modulus_hi.max())
    if not smallest <= far <= largest:
        raise ValidationError(
            f"largest region modulus {far:.3g} lies outside [{smallest:g}, {largest:g}], where "
            "the region geometry overflows or underflows double precision; scale the "
            f"amplitudes {'up' if far < smallest else 'down'}"
        )
    p_lo = modulus_lo**2
    p_hi = modulus_hi**2
    nominal_power = np.abs(nominal_af_curve(scenario, grid)) ** 2
    peak_power = float(nominal_power.max())
    if peak_power <= 0.0:
        raise ValidationError("nominal pattern is identically zero on the grid")
    return PowerBoundsCurve(
        scenario=scenario,
        grid=grid,
        vertices=vertices,
        p_lo=p_lo,
        p_hi=p_hi,
        p_lo_db=power_db(p_lo, peak_power),
        p_hi_db=power_db(p_hi, peak_power),
        nominal_db=power_db(nominal_power, peak_power),
        modulus_lo=modulus_lo,
        modulus_hi=modulus_hi,
        n_vertices=n_vertices,
        peak_power=peak_power,
    )
