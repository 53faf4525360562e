"""Interval array factor as a convex region per direction, and power-pattern bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .geometry import (
    EPS_GEOM,
    _row_blocks,
    disc_polygon_areas,
    modulus_bounds,
    polygonize_interval_phasors,
    rotated_minkowski_sums,
)
from .model import AngularGrid, ArrayScenario, check_integer

_TWO_PI = 2.0 * math.pi
_ROUNDING = 2.0 * float(np.finfo(np.float64).eps)

# Range of the sector_reach, which bounds every region modulus, that the
# geometry represents: the ring areas take products of about modulus**4,
# which stay normal doubles (1e-288 to 1e288) inside it.
_MODULUS_RANGE = (1e-72, 1e72)

# The region pass works on blocks of grid rows whose padded regions, and
# their ring areas' temporaries, take about this many bytes; one block's
# regions are all the pass holds.
_PASS_BYTES = 1 << 20

# Bytes, about, that disc_polygon_areas takes per region and ring radius
# for the cut edges it gathers over a whole block (tracemalloc peaks).
_RING_AREA_BYTES = 640

# Relative size, against the region's area, of a negative ring area that is
# still taken for round-off and clipped to zero.
_ROUNDOFF = 1e-12


@dataclass(frozen=True)
class PowerBoundsCurve:
    """Per-direction inclusive bounds of the radiated power pattern, as one region pass took them.

    The record of interval_af_curve over grid: the modulus bounds of each
    direction's array-factor region, from the sectors (the (vertices,
    n_vertices) of element_sectors) that the regions sum, and n_vertices
    the regions' vertex counts.  The regions themselves are not kept; they
    leave the pass only through its sink.  nominal_power is the nominal
    |AF|**2 at each direction, from its region's steering phases, and
    peak_power its largest value, allowance the rounding allowance the
    modulus bounds were widened by (besides each row's welded length),
    mirrored the leading rows that are mirror images (mirrored_rows), and
    rings the (p, degenerate) of each ring count the pass was asked for,
    which probability_map reads.

    The power bounds and their dB values, normalized so the nominal pattern
    peaks at 0 dB (a zero lower bound maps to -inf dB), are computed from
    these when read.  A curve of a pass over a sub-grid may have
    peak_power == 0; only power_bounds guarantees a positive peak, so the
    dB values are meaningful only on its curves.
    """

    scenario: ArrayScenario = field(repr=False)
    grid: AngularGrid
    sectors: tuple[np.ndarray, np.ndarray] = field(repr=False)
    n_vertices: np.ndarray = field(repr=False)
    modulus_lo: np.ndarray = field(repr=False)
    modulus_hi: np.ndarray = field(repr=False)
    nominal_power: np.ndarray = field(repr=False)
    peak_power: float
    allowance: float
    mirrored: int
    rings: dict = field(repr=False)

    @property
    def p_lo(self) -> np.ndarray:
        return self.modulus_lo**2

    @property
    def p_hi(self) -> np.ndarray:
        return self.modulus_hi**2

    @property
    def p_lo_db(self) -> np.ndarray:
        return power_db(self.p_lo, self.peak_power)

    @property
    def p_hi_db(self) -> np.ndarray:
        return power_db(self.p_hi, self.peak_power)

    @property
    def nominal_db(self) -> np.ndarray:
        return power_db(self.nominal_power, self.peak_power)


def interval_af_curve(
    scenario: ArrayScenario, grid: AngularGrid, sectors, ring_counts=(), sink=None
) -> PowerBoundsCurve:
    """The region pass: array-factor regions at every grid sample, reduced to a PowerBoundsCurve.

    sectors is the (vertices, n_vertices) of scenario's element_sectors; at
    direction u element n's sector is rotated by the steering phase
    2*pi*spacing*n*u, and the region, their Minkowski sum, contains the
    nominal array factor.  The grid's rows are summed in blocks of about
    _PASS_BYTES of regions and ring-area temporaries (_RING_AREA_BYTES per
    region and ring radius), each from its own rows' steering phases, and
    each block is reduced before the next is summed: its modulus bounds,
    widened by the rounding_allowance of the sectors, which checks their
    sector_reach before the sum, and each row's by the length of the steps
    its normalization welded, which bounds how far the weld moved the
    region's boundary; the ring probabilities of each ring count in
    ring_counts; and, when sink is given, sink(first, vertices, n_vertices)
    with the block's regions in the padded-row format, the grid rows from
    first on.  Then the block is dropped, so no array of every region, or
    of every row's steering phases, is ever held.  Where mirrored_rows finds
    the mirror symmetry, only the rows from u = 0 on are summed.  One pair
    of slices per block then maps each summed row at u to its image row at
    -u: the block writes its vertex counts, bounds and ring probabilities to
    its own rows and, reversed, to their image rows, and sink gets the
    images' regions as the mirror_image of those at u, after the block's
    own.  Each block also sums the nominal array factor at its rows from
    the phases psi its regions are rotated by, and at their image rows
    from -psi, bitwise the phases at -u: a nominal phase inside a symmetric
    interval need not be 0.  The curve holds the nominal power and its
    peak, which is 0 where the nominal pattern vanishes at every sample,
    as it may on a sub-grid: power_bounds, not the pass, rejects a zero
    peak.
    """
    for k_regions in ring_counts:
        check_integer("k_regions", k_regions, 1)
    slack = rounding_allowance(sectors[0])
    n_u, mirrored = len(grid), mirrored_rows(scenario, grid)
    n_vertices = np.empty(n_u, dtype=np.int64)
    lo, hi, nominal = np.empty(n_u), np.empty(n_u), np.empty(n_u, dtype=complex)
    amplitudes = np.array([[e.nominal_amplitude] for e in scenario.elements])
    phases = np.array([[e.nominal_phase] for e in scenario.elements])
    # C order, since numpy's sums along the grid round by memory layout
    rings = {k: (np.empty((k, n_u)), np.empty(n_u, dtype=bool)) for k in ring_counts}
    # K rings beside 2K take no ring-area radii of their own (_ring_probabilities)
    radii_per_row = sum(k + 1 for k in rings if 2 * k not in rings)
    row_bytes = 16 * int(sectors[1].sum()) + _RING_AREA_BYTES * radii_per_row
    for block in _row_blocks(n_u - mirrored, row_bytes, _PASS_BYTES):
        rows = slice(mirrored + block.start, mirrored + block.stop)
        # grid row r's image is row n_u - 1 - r, for the block's rows from first on
        first = max(0, n_u - 2 * mirrored - block.start)
        images = slice(n_u - mirrored - block.stop, n_u - rows.start - first)
        psi = steering_phases(scenario, grid.samples[rows])
        # before the sums, so the nominal's (N, rows) temporaries are gone by then
        nominal[rows] = _nominal_af(amplitudes, phases, psi)
        nominal[images] = _nominal_af(amplitudes, phases, -psi[first:][::-1])
        vertices, n, welded = rotated_minkowski_sums(*sectors, psi)
        block_lo, block_hi = modulus_bounds(vertices, n)
        reach = slack + welded
        block_lo, block_hi = np.maximum(block_lo - reach, 0.0), block_hi + reach
        values = [(n_vertices, n), (lo, block_lo), (hi, block_hi)]
        if rings:  # every ring count in one ring-area call
            radii = [_ring_radii(block_lo, block_hi, k_regions) for k_regions in rings]
            for ring, block_ring in zip(rings.values(), _ring_probabilities(radii, vertices, n)):
                values += zip(ring, block_ring)
        for target, value in values:
            target[..., rows] = value
            target[..., images] = value[..., first:][..., ::-1]
        if sink is not None:
            sink(rows.start, vertices, n)
            if first < len(n):
                image_n = n[first:][::-1]
                sink(images.start, mirror_image(vertices[first:][::-1], image_n), image_n)
        del vertices  # so the next block's sum does not hold it too
    nominal_power = np.abs(nominal) ** 2
    return PowerBoundsCurve(
        scenario, grid, sectors, n_vertices, lo, hi, nominal_power,
        float(nominal_power.max()), slack, mirrored, rings,
    )


def _nominal_af(amplitudes, phases, psi) -> np.ndarray:
    """The nominal AF at each row of psi, its elements added in order (cumsum; sum is pairwise)."""
    return np.cumsum(amplitudes * np.exp(1j * (phases + psi.T)), axis=0)[-1]


def _ring_radii(modulus_lo, modulus_hi, k_regions: int) -> np.ndarray:
    """K+1 radii splitting [modulus_lo, modulus_hi] uniformly, along a new last axis."""
    lo, hi = np.asarray(modulus_lo)[..., None], np.asarray(modulus_hi)[..., None]
    radii = lo + (hi - lo) / k_regions * np.arange(k_regions + 1)
    radii[..., :1], radii[..., -1:] = lo, hi  # the outer boundaries are the bounds, bit for bit
    return radii


def _ring_probabilities(radii, vertices, n_vertices) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each (rows, K+1) array in radii, the padded regions' (K, rows) ring probabilities.

    Each comes with which regions have no area.  The arrays are the
    _ring_radii of one pair of bounds.  One disc_polygon_areas call takes
    every radius; a region's area at a radius does not depend on the other
    radii of its row, so the K + 1 radii of K rings, asked for beside 2K,
    take their areas from the even columns of the 2K + 1, which are the
    same radii bit for bit: (hi - lo) / 2K is ((hi - lo) / K) / 2 exactly.
    Row i's radii run from one within every edge's distance from the
    origin to one that encloses every vertex, as the modulus bounds do, so
    disc_polygon_areas takes its closed forms there: 0 for the first disc
    and the region's area for the last.
    """
    widths = [r.shape[1] for r in radii]
    own = [w for w in widths if 2 * w - 1 not in widths]
    covered = disc_polygon_areas(
        np.concatenate([r for r in radii if r.shape[1] in own], axis=1), vertices, n_vertices
    )
    if not np.isfinite(covered).all():
        raise ValidationError("ring areas overflow double precision; scale the amplitudes down")
    areas = dict(zip(own, np.split(covered, np.cumsum(own)[:-1], axis=1)))
    for width in sorted(set(widths) - set(own), reverse=True):  # 2K + 1 before K + 1
        areas[width] = areas[2 * width - 1][:, ::2]
    probabilities = []
    for ring_radii in radii:
        total = areas[ring_radii.shape[1]][:, -1]
        rings = np.diff(areas[ring_radii.shape[1]], axis=1)
        live = total > (EPS_GEOM * ring_radii[:, -1]) ** 2  # relative to the enclosing disc
        bad = live & (rings.min(axis=1) < -_ROUNDOFF * total)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValidationError(
                f"ring areas {rings[i].tolist()} of a region with area {total[i]} "
                "are negative beyond round-off"
            )
        rings = np.where(live[:, None], np.maximum(rings, 0.0), 0.0)
        rings[~live, 0] = 1.0  # a region with no area puts all probability in the first ring
        probabilities.append(((rings / rings.sum(axis=1, keepdims=True)).T, ~live))
    return probabilities


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


def mirror_image(vertices: np.ndarray, n_vertices: np.ndarray) -> np.ndarray:
    """The conjugate of each padded region: its vertex 0 first, then the rest in reverse order.

    So the image stays counter-clockwise and keeps the padded-row format.
    """
    n = np.asarray(n_vertices)[:, None]
    slot = np.arange(vertices.shape[1])
    image = np.take_along_axis(vertices, np.where(slot < n, (n - slot) % n, 0), axis=1)
    return np.conjugate(image, out=image)


def steering_phases(scenario: ArrayScenario, u) -> np.ndarray:
    """(len(u), N) steering phases 2*pi*spacing*n*u: the regions', nominal's and MC's alike."""
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


def power_db(power, peak_power: float, out=None):
    """Linear power to dB relative to the peak; 0 maps to -inf.  out, when
    given, is a float64 array of power's shape that takes the dB, and may be power."""
    power = np.asarray(power, dtype=np.float64)
    # the one array it allocates, where out is not given
    out = np.divide(power, peak_power, out=np.empty(power.shape) if out is None else out)
    with np.errstate(divide="ignore"):
        np.log10(out, out=out)
    out *= 10.0
    return float(out) if out.shape == () else out


def power_bounds(
    scenario: ArrayScenario, grid: AngularGrid, arc_points: int = 8, ring_counts=(), sink=None
) -> PowerBoundsCurve:
    """Inclusive power-pattern bounds over a grid: the curve of one region pass.

    The sectors are polygonized once at arc_points, and one region pass
    (interval_af_curve) over them takes the bounds and the ring
    probabilities of each count in ring_counts, which probability_map then
    reads, and hands each block of regions to sink.  A sector_reach outside
    _MODULUS_RANGE raises ValidationError before any region is built;
    inside it the power bounds, and the nominal peak they contain, are
    finite.  A nominal pattern that is zero at every grid sample raises
    ValidationError, so the curve's dB values are defined.
    """
    sectors = element_sectors(scenario, arc_points)
    curve = interval_af_curve(scenario, grid, sectors, ring_counts, sink)
    if curve.peak_power <= 0.0:
        raise ValidationError("nominal pattern is identically zero on the grid")
    return curve
