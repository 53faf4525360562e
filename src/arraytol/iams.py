"""Interval array factor as a convex region per direction, and power-pattern bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .geometry import modulus_bounds, polygonize_interval_phasors, rotated_minkowski_sums
from .model import AngularGrid, ArrayScenario

_TWO_PI = 2.0 * math.pi
_ROUNDING = 2.0 * float(np.finfo(np.float64).eps)

# Range of the sector_reach, which bounds every region modulus, that the
# geometry represents: the ring areas take products of about modulus**4,
# which stay normal doubles (1e-288 to 1e288) inside it.
_MODULUS_RANGE = (1e-72, 1e72)


@dataclass(frozen=True)
class PowerBoundsCurve:
    """Per-direction inclusive bounds of the radiated power pattern.

    The bounds of scenario over grid: linear power bounds plus dB values
    normalized so the nominal pattern peaks at 0 dB; a zero lower bound
    maps to -inf dB.  Every dB value is power_db of a linear power:
    nominal_db and peak_power are taken from nominal_power, the nominal
    |AF|**2 at each direction.  stored_vertices holds the regions the bounds
    were taken from, in the padded-row format of arraytol.geometry: grid row
    i + mirrored in its row i, the rows before being mirror images that
    regions() builds (interval_af_curve).  n_vertices covers the whole grid.
    arc_points is the sector polygonization the regions were built with, and
    allowance the rounding allowance their modulus bounds were widened by
    (besides each row's welded length).
    """

    scenario: ArrayScenario = field(repr=False)
    grid: AngularGrid
    stored_vertices: np.ndarray = field(repr=False)
    p_lo: np.ndarray = field(repr=False)
    p_hi: np.ndarray = field(repr=False)
    p_lo_db: np.ndarray = field(repr=False)
    p_hi_db: np.ndarray = field(repr=False)
    nominal_db: np.ndarray = field(repr=False)
    nominal_power: np.ndarray = field(repr=False)
    modulus_lo: np.ndarray = field(repr=False)
    modulus_hi: np.ndarray = field(repr=False)
    n_vertices: np.ndarray = field(repr=False)
    peak_power: float
    arc_points: int
    allowance: float
    mirrored: int

    def regions(self, rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """(vertices, n_vertices) of grid rows, a slice or an index array, padded as stored.

        Mirrored row i is the conjugate of row len(grid) - 1 - i, vertex 0
        first and the rest in reverse order, so it stays counter-clockwise.
        With nothing mirrored, a slice of rows gives a view of stored_vertices.
        """
        if not self.mirrored:
            return self.stored_vertices[rows], self.n_vertices[rows]
        row = np.arange(len(self.grid))[rows]
        flip = (row < self.mirrored)[:, None]
        n = self.n_vertices[row][:, None]
        slot = np.arange(self.stored_vertices.shape[1])
        order = np.where(flip, np.where(slot < n, (n - slot) % n, 0), slot)
        source = np.where(flip[:, 0], len(self.grid) - 1 - row, row) - self.mirrored
        vertices = self.stored_vertices[source[:, None], order]
        return np.conjugate(vertices, out=vertices, where=flip), n[:, 0]


def nominal_af_curve(scenario: ArrayScenario, grid: AngularGrid) -> np.ndarray:
    """Vectorized nominal array factor over a grid."""
    amps = np.array([el.nominal_amplitude for el in scenario.elements])
    phases = np.array([el.nominal_phase for el in scenario.elements])
    # C order, since numpy's sum along axis 0 rounds by memory layout
    steering = np.ascontiguousarray(steering_phases(scenario, grid.samples).T)
    return (amps[:, None] * np.exp(1j * (phases[:, None] + steering))).sum(axis=0)


class IntervalRegions(NamedTuple):
    """The regions of a grid and their modulus bounds, as interval_af_curve returns them."""

    stored_vertices: np.ndarray  # only the rows from mirrored on; the rest cover the whole grid
    n_vertices: np.ndarray
    modulus_lo: np.ndarray
    modulus_hi: np.ndarray
    allowance: float  # the rounding_allowance the modulus bounds are widened by
    mirrored: int  # leading rows that are mirror images, not stored (mirrored_rows)


def interval_af_curve(
    scenario: ArrayScenario, grid: AngularGrid, arc_points: int = 8
) -> IntervalRegions:
    """Array-factor regions at every grid sample, with their modulus bounds.

    Each element's sector is polygonized once; at direction u it is that
    polygon rotated by the steering phase 2*pi*spacing*n*u, and the region,
    their Minkowski sum, contains the nominal array factor.  One batched
    Minkowski sum covers the whole grid and returns its regions in the
    padded-row format.  The modulus bounds are widened by the
    rounding_allowance of the sectors, which checks their sector_reach
    before the sum, and each row's by the length of the steps its
    normalization welded, which bounds how far the weld moved the
    region's boundary.  Where mirrored_rows finds the mirror symmetry,
    only the rows from u = 0 on are summed, bounded and stored; each row at
    -u is the conjugate of the row at u and copies its count and bounds.
    """
    sectors, sector_counts = element_sectors(scenario, arc_points)
    slack = rounding_allowance(sectors)
    mirrored = mirrored_rows(scenario, grid)
    psi = steering_phases(scenario, grid.samples[mirrored:])
    vertices, n_vertices, welded = rotated_minkowski_sums(sectors, sector_counts, psi)
    lo, hi = modulus_bounds(vertices, n_vertices)
    reach = slack + welded
    return IntervalRegions(
        vertices,
        unfold_mirror(n_vertices, mirrored),
        unfold_mirror(np.maximum(lo - reach, 0.0), mirrored),
        unfold_mirror(hi + reach, mirrored),
        slack,
        mirrored,
    )


def mirrored_rows(scenario: ArrayScenario, grid: AngularGrid) -> int:
    """How many leading grid rows are mirror images of trailing ones, and not summed.

    When every element's phase interval is symmetric about 0 (exactly
    phase_lo == -phase_hi), each sector is its own conjugate, and on a
    grid with u[::-1] == -u exactly the region at -u is the conjugate of
    the region at u: the len(grid) // 2 rows with u < 0 are mirrored.
    Anything else mirrors none.
    """
    u = grid.samples
    symmetric = all(e.phase_lo == -e.phase_hi for e in scenario.elements)
    return len(u) // 2 if symmetric and np.array_equal(u, -u[::-1]) else 0


def unfold_mirror(values: np.ndarray, mirrored: int) -> np.ndarray:
    """Full-grid values from those of rows mirrored onward, along the last axis.

    Row i < mirrored takes the value of row -1 - i.  With nothing mirrored
    the result is values itself, not a copy.
    """
    if not mirrored:
        return values
    return np.concatenate((values[..., ::-1][..., :mirrored], values), axis=-1)


def steering_phases(scenario: ArrayScenario, u) -> np.ndarray:
    """(len(u), N) steering phases 2*pi*spacing*n*u of each element at each direction."""
    return _TWO_PI * scenario.spacing * np.outer(u, np.arange(scenario.n_elements))


def element_sectors(
    scenario: ArrayScenario, arc_points: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """Each element's excitation sector as a covering polygon, in element order.

    Returns (vertices, n_vertices) in the padded-row format, one row per element.
    """
    return polygonize_interval_phasors(
        [(e.amplitude_lo, e.amplitude_hi, e.phase_lo, e.phase_hi) for e in scenario.elements],
        arc_points,
    )


def rounding_allowance(sectors: np.ndarray) -> float:
    """Modulus widening that keeps rounded phasor sums inside the bounds.

    Summing N phasors in floating point moves the sum by up to about
    N * eps * (sum of their moduli), both in the region sums and wherever a
    realization is evaluated; the allowance is twice that.  sectors is the
    padded vertex array of element_sectors, and the sum is their
    sector_reach, so the allowance checks its range.
    """
    return _ROUNDING * len(sectors) * sector_reach(sectors)


def sector_reach(sectors: np.ndarray) -> float:
    """The sum over the sectors of each one's modulus, which bounds every region modulus.

    Each sector's modulus is the farthest vertex of its row of the padded
    vertex array, which the padding cannot change, and the moduli are
    summed in element order.  A sum outside _MODULUS_RANGE raises
    ValidationError.
    """
    reach = sum(np.abs(sectors).max(axis=1).tolist())
    smallest, largest = _MODULUS_RANGE
    if not smallest <= reach <= largest:
        raise ValidationError(
            f"sector moduli sum {reach:.3g} lies outside [{smallest:g}, {largest:g}], where "
            "the region geometry overflows or underflows double precision; scale the "
            f"amplitudes {'up' if reach < smallest else 'down'}"
        )
    return reach


def power_db(power, peak_power: float):
    """Linear power to dB relative to the peak; 0 maps to -inf."""
    with np.errstate(divide="ignore"):
        out = 10.0 * np.log10(np.asarray(power, dtype=np.float64) / peak_power)
    return float(out) if out.shape == () else out


def power_bounds(
    scenario: ArrayScenario, grid: AngularGrid, arc_points: int = 8
) -> PowerBoundsCurve:
    """Inclusive power-pattern bounds over a grid, in linear power and dB.

    A sector_reach outside _MODULUS_RANGE raises ValidationError before
    any region is built; inside it the power bounds, and the nominal peak
    they contain, are finite.
    """
    regions = interval_af_curve(scenario, grid, arc_points)
    p_lo = regions.modulus_lo**2
    p_hi = regions.modulus_hi**2
    # the full grid: a nominal phase inside a symmetric interval need not be 0
    nominal_power = np.abs(nominal_af_curve(scenario, grid)) ** 2
    peak_power = float(nominal_power.max())
    if peak_power <= 0.0:
        raise ValidationError("nominal pattern is identically zero on the grid")
    return PowerBoundsCurve(
        scenario=scenario,
        grid=grid,
        stored_vertices=regions.stored_vertices,
        p_lo=p_lo,
        p_hi=p_hi,
        p_lo_db=power_db(p_lo, peak_power),
        p_hi_db=power_db(p_hi, peak_power),
        nominal_db=power_db(nominal_power, peak_power),
        nominal_power=nominal_power,
        modulus_lo=regions.modulus_lo,
        modulus_hi=regions.modulus_hi,
        n_vertices=regions.n_vertices,
        peak_power=peak_power,
        arc_points=arc_points,
        allowance=regions.allowance,
        mirrored=regions.mirrored,
    )
