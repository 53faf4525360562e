"""Probability analysis inside the power-pattern bounds.

Partitions each direction's reachable array-factor region into uniform
annular rings, assigns each power sub-interval the area fraction of the
region it captures, and reduces the per-direction probabilities into
sidelobe-level and pattern-peak feature intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .geometry import EPS_GEOM, disc_polygon_areas
from .iams import PowerBoundsCurve, power_db, unfold_mirror
from .model import check_integer

# Relative size, against the region's area, of a negative ring area that is
# still taken for round-off and clipped to zero.
_ROUNDOFF = 1e-12


@dataclass(frozen=True)
class ProbabilityMap:
    """Per-direction ring-occupancy probabilities of the power pattern.

    The map of bounds, on its grid: p[k, i] is the probability that the
    pattern at grid sample i falls in the k-th power sub-interval;
    region_power_db[i] holds the K+1 ring boundaries in dB relative to the
    nominal peak, power_db of the squared ring radii: the end radii are the
    modulus bounds, so columns 0 and K are bitwise the p_lo_db and p_hi_db
    of bounds.  Directions where the reachable region has no area carry
    the degenerate flag and put all probability in the first ring by
    convention.
    """

    bounds: PowerBoundsCurve = field(repr=False)
    k_regions: int
    p: np.ndarray = field(repr=False)
    ring_radii: np.ndarray = field(repr=False)
    region_power_db: np.ndarray = field(repr=False)
    degenerate: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class FeatureReport:
    """Sidelobe-level and pattern-peak intervals with their probabilities."""

    k_regions: int
    u_max: float
    mainlobe_span: tuple[float, float]
    gamma_intervals: np.ndarray = field(repr=False)  # (K, 2) dB
    gamma_probs: np.ndarray = field(repr=False)
    sll_intervals: np.ndarray | None = field(repr=False)  # (K, 2) dB; None: no sidelobe
    iams_gamma: tuple[float, float] = field(repr=True)
    iams_sll: tuple[float, float] | None = field(repr=True)
    mean_probs: np.ndarray = field(repr=False)
    degenerate: bool = False


def _ring_radii(modulus_lo, modulus_hi, k_regions: int) -> np.ndarray:
    """K+1 radii splitting [modulus_lo, modulus_hi] uniformly, along a new last axis."""
    lo, hi = np.asarray(modulus_lo)[..., None], np.asarray(modulus_hi)[..., None]
    radii = lo + (hi - lo) / k_regions * np.arange(k_regions + 1)
    radii[..., :1], radii[..., -1:] = lo, hi  # the outer boundaries are the bounds, bit for bit
    return radii


def _ring_probabilities(radii, vertices, n_vertices) -> tuple[np.ndarray, np.ndarray]:
    """(K, rows) ring probabilities of padded regions, and which regions have no area.

    Row i's last radius encloses its region, so that disc's area is the
    region's.
    """
    covered = disc_polygon_areas(radii, vertices, n_vertices)
    if not np.isfinite(covered).all():
        raise ValidationError("ring areas overflow double precision; scale the amplitudes down")
    total = covered[:, -1]
    rings = np.diff(covered, axis=1)
    live = total > (EPS_GEOM * radii[:, -1]) ** 2  # relative to the enclosing disc
    bad = live & (rings.min(axis=1) < -_ROUNDOFF * total)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(
            f"ring areas {rings[i].tolist()} of a region with area {total[i]} "
            "are negative beyond round-off"
        )
    rings = np.where(live[:, None], np.maximum(rings, 0.0), 0.0)
    rings[~live, 0] = 1.0  # a region with no area puts all probability in the first ring
    # C order, since numpy's sums along the grid round by memory layout
    return np.ascontiguousarray((rings / rings.sum(axis=1, keepdims=True)).T), ~live


def probability_map(bounds: PowerBoundsCurve, k_regions: int) -> ProbabilityMap:
    """Ring partitions and occupancy probabilities at every grid sample.

    The rings split each direction's modulus bounds; grid, regions and peak
    power are those of bounds, which the map keeps.  The ring areas are
    taken only for the rows bounds computed; its mirrored rows copy the
    probabilities of their mirror images.
    """
    check_integer("k_regions", k_regions, 1)
    ring_radii = _ring_radii(bounds.modulus_lo, bounds.modulus_hi, k_regions)
    m = bounds.mirrored
    p, degenerate = _ring_probabilities(ring_radii[m:], bounds.vertices[m:], bounds.n_vertices[m:])
    p, degenerate = unfold_mirror(p, m), unfold_mirror(degenerate, m)
    return ProbabilityMap(
        bounds=bounds,
        k_regions=k_regions,
        p=p,
        ring_radii=ring_radii,
        region_power_db=power_db(ring_radii**2, bounds.peak_power),
        degenerate=degenerate,
    )


def mean_probabilities(pmap: ProbabilityMap) -> np.ndarray:
    """Angular mean of each ring probability: (1/2) * integral of p_k(u) du."""
    return 0.5 * np.trapezoid(pmap.p, x=pmap.bounds.grid.samples, axis=1)


def mainlobe_indices(nominal_power: np.ndarray) -> tuple[int, int, int]:
    """(peak index, left end index, right end index) of the nominal pattern's mainlobe.

    The mainlobe is the lobe around the nominal peak.  It ends at the first
    local minimum on each side of the peak, or at the grid edge where the
    pattern does not turn back up before it.
    """
    i_max = int(np.argmax(nominal_power))
    n = nominal_power.size
    left = i_max
    while left > 0 and nominal_power[left - 1] < nominal_power[left] * (1.0 + 1e-12):
        left -= 1
    right = i_max
    while right < n - 1 and nominal_power[right + 1] < nominal_power[right] * (1.0 + 1e-12):
        right += 1
    return i_max, left, right


def feature_report(pmap: ProbabilityMap) -> FeatureReport:
    """Sidelobe-level and peak intervals per ring, with their probabilities.

    Peak intervals are the ring boundaries at the steering direction and
    tile the peak bound exactly.  Sidelobe intervals subtract the pattern
    peak bounds from the highest sidelobe of each ring-boundary curve,
    searched outside the mainlobe independently per curve, so the first
    and last intervals coincide with the overall bound endpoints; with no
    grid sample outside the mainlobe there is no sidelobe, and the
    sidelobe intervals are None.  Ring count, grid and nominal pattern are
    those of pmap and its bounds.
    """
    bounds = pmap.bounds
    grid = bounds.grid
    k_regions = pmap.k_regions

    i_max, left, right = mainlobe_indices(bounds.nominal_power)
    side = np.ones(len(grid), dtype=bool)
    side[left : right + 1] = False

    boundary_db = pmap.region_power_db  # (N_u, K+1)
    peak_inf_db = boundary_db[i_max, 0]
    peak_sup_db = boundary_db[i_max, k_regions]
    gamma_intervals = np.column_stack((boundary_db[i_max, :-1], boundary_db[i_max, 1:]))
    gamma_probs = pmap.p[:, i_max].copy()

    sll_intervals = iams_sll = None
    if side.any():
        side_max = boundary_db[side].max(axis=0)  # highest sidelobe per boundary curve
        sll_intervals = np.column_stack(
            (side_max[:-1] - peak_sup_db, side_max[1:] - peak_inf_db)
        )
        iams_sll = (float(side_max[0] - peak_sup_db), float(side_max[-1] - peak_inf_db))
    return FeatureReport(
        k_regions=k_regions,
        u_max=float(grid.samples[i_max]),
        mainlobe_span=(float(grid.samples[left]), float(grid.samples[right])),
        gamma_intervals=gamma_intervals,
        gamma_probs=gamma_probs,
        sll_intervals=sll_intervals,
        iams_gamma=(float(peak_inf_db), float(peak_sup_db)),
        iams_sll=iams_sll,
        mean_probs=mean_probabilities(pmap),
        degenerate=bool(pmap.degenerate.any()),
    )
