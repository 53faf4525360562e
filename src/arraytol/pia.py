"""Probability analysis inside the power-pattern bounds.

Reads the ring probabilities that the region pass of power_bounds took
(each power sub-interval's share of a direction's reachable array-factor
region, one uniform annular ring of it), pairs them with their ring
boundaries in dB, and reduces the per-direction probabilities into
sidelobe-level and pattern-peak feature intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .iams import PowerBoundsCurve, _ring_radii, power_db


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
    """Sidelobe-level and pattern-peak intervals with their probabilities, and
    each ring's angular mean over the grid's span (mean_probs)."""

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


def probability_map(bounds: PowerBoundsCurve) -> ProbabilityMap:
    """Ring partitions and occupancy probabilities at every grid sample.

    The rings split each direction's modulus bounds; grid, regions, peak
    power and ring count are those of bounds, which the map keeps.  The
    probabilities are the ones the region pass of bounds took; a curve
    built without rings raises ValidationError, since the regions are no
    longer held.
    """
    if bounds.rings is None:
        raise ValidationError(
            "the bounds hold no ring probabilities; pass k_regions= to power_bounds"
        )
    p, degenerate = bounds.rings
    ring_radii = _ring_radii(bounds.modulus_lo, bounds.modulus_hi, len(p))
    return ProbabilityMap(
        bounds=bounds,
        k_regions=len(p),
        p=p,
        ring_radii=ring_radii,
        region_power_db=power_db(ring_radii**2, bounds.peak_power),
        degenerate=degenerate,
    )


def map_bytes(n_u: int, k_regions: int) -> int:
    """A ProbabilityMap's bytes on n_u rows, besides its curve's: float64 ring radii and their
    dB, and as many more of temporaries, which building it or its feature_report take."""
    return 32 * n_u * (k_regions + 1)


def mean_probabilities(pmap: ProbabilityMap) -> np.ndarray:
    """Each ring probability's trapezoid mean over the grid's span u[-1] - u[0],
    so the means sum to one on any grid; on a one-sample grid, its column."""
    u = pmap.bounds.grid.samples
    if u.size == 1:
        return pmap.p[:, 0].copy()
    return np.trapezoid(pmap.p, x=u, axis=1) / (u[-1] - u[0])


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
