"""Probability analysis inside the power-pattern bounds.

Reduces the ring probabilities that the region pass of power_bounds took
(each power sub-interval's share of a direction's reachable array-factor
region, one uniform annular ring of it), which its curve holds with their
ring boundaries in dB, into sidelobe-level and pattern-peak feature
intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .iams import PowerBoundsCurve


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


def mean_probabilities(curve: PowerBoundsCurve) -> np.ndarray:
    """Each of the curve's ring probabilities' trapezoid mean over its grid's span
    u[-1] - u[0], so the means sum to one on any grid; on a one-sample grid, its column."""
    u, p = curve.grid.samples, curve.p
    if u.size == 1:
        return p[:, 0].copy()
    return np.trapezoid(p, x=u, axis=1) / (u[-1] - u[0])


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


def feature_report(curve: PowerBoundsCurve) -> FeatureReport:
    """Sidelobe-level and peak intervals per ring, with their probabilities.

    Peak intervals are the ring boundaries at the steering direction and
    tile the peak bound exactly.  Sidelobe intervals subtract the pattern
    peak bounds from the highest sidelobe of each ring-boundary curve,
    searched outside the mainlobe independently per curve, so the first
    and last intervals coincide with the overall bound endpoints; with no
    grid sample outside the mainlobe there is no sidelobe, and the
    sidelobe intervals are None.  Rings, grid and nominal pattern are
    those of curve, which must hold rings.
    """
    grid, k_regions = curve.grid, curve.k_regions

    i_max, left, right = mainlobe_indices(curve.nominal_power)
    side = np.ones(len(grid), dtype=bool)
    side[left : right + 1] = False

    boundary_db = curve.region_power_db  # (N_u, K+1)
    peak_inf_db = boundary_db[i_max, 0]
    peak_sup_db = boundary_db[i_max, k_regions]
    gamma_intervals = np.column_stack((boundary_db[i_max, :-1], boundary_db[i_max, 1:]))
    gamma_probs = curve.p[:, i_max].copy()

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
        mean_probs=mean_probabilities(curve),
        degenerate=bool(curve.degenerate.any()),
    )
