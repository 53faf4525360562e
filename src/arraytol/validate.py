"""Self-check suite: structural invariants plus an independent area oracle.

These checks back the `validate` CLI command.  The area oracle splits a
region once into its lower and upper chains, takes the exact slice between
them at each column x, clips it by the circle and integrates the widths by
Simpson quadrature in x: a computation path fully independent of the
center-fanned geometry kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .iams import interval_af_curve, power_bounds
from .model import AngularGrid, scenario_from_tolerances
from .montecarlo import McReport
from .pia import (
    _ring_probabilities,
    _ring_radii,
    feature_report,
    mean_probabilities,
    probability_map,
)

REL_TOL = 1e-9
N_COLUMNS = 8193  # odd, so composite Simpson has an even number of panels
N_RAYS = 64  # directions along which pattern-symmetry compares regions


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def disc_polygon_area_quadrature(radii, vertices) -> np.ndarray:
    """Area of one convex region inside the disc of each radius (independent oracle).

    vertices is a convex CCW vertex ring.  It is split once into a lower
    chain, from the lowest of its leftmost vertices to the lowest of its
    rightmost, and an upper chain, from the highest of its rightmost back to
    the highest of its leftmost.  The region's slice at column x runs from
    the lower chain to the upper one; for each radius in turn the slices are
    clipped by the circle and composite Simpson over N_COLUMNS columns
    integrates their widths, so the temporaries are a few N_COLUMNS-long
    rows whatever the number of radii.  Breaking ties among the extreme
    vertices by height keeps a vertical extreme edge out of both chains, so
    the end columns see the whole slice.
    """
    radii = np.asarray(radii, dtype=np.float64)
    vs = np.asarray(vertices, dtype=np.complex128)
    n = vs.size
    # sorted by x, ties by y: first the lowest leftmost, last the highest rightmost
    low_left, high_right = np.lexsort((vs.imag, vs.real))[[0, -1]]
    # sorted by x, ties by -y: first the highest leftmost, last the lowest rightmost
    high_left, low_right = np.lexsort((-vs.imag, vs.real))[[0, -1]]
    lower = np.roll(vs, -low_left)[: (low_right - low_left) % n + 1]
    upper = np.roll(vs, -high_right)[: (high_left - high_right) % n + 1][::-1]

    weights = np.ones(N_COLUMNS)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    areas = np.empty(radii.shape)
    for i, r in enumerate(radii):
        x_lo = max(vs[low_left].real, -r)
        x_hi = min(vs[high_right].real, r)
        xs = np.linspace(x_lo, x_hi, N_COLUMNS)
        y_circ = np.sqrt(np.maximum(r * r - xs * xs, 0.0))
        y_lo = np.maximum(np.interp(xs, lower.real, lower.imag), -y_circ)
        y_hi = np.minimum(np.interp(xs, upper.real, upper.imag), y_circ)
        width = np.maximum(y_hi - y_lo, 0.0)
        h = max(x_hi - x_lo, 0.0) / (N_COLUMNS - 1)
        areas[i] = width @ weights * h / 3.0
    return areas


def run_validation(mc: McReport) -> list[CheckResult]:
    """Check the products of one run: mc, its map and the map's bounds.

    Builds only what the checks add: the 2K map, the scenario's
    zero-tolerance collapse and its map, and the oracle slices.  Every
    entry carries a pass/fail verdict.
    """
    results: list[CheckResult] = []
    pmap, bounds, k_regions = mc.pmap, mc.pmap.bounds, mc.pmap.k_regions

    col_err = float(np.abs(pmap.p.sum(axis=0) - 1.0).max())
    results.append(
        CheckResult(
            "column-stochasticity",
            col_err <= REL_TOL,
            f"max |sum_k p_k - 1| = {col_err:.3e}",
        )
    )

    pmap2 = probability_map(bounds, 2 * k_regions)
    agg = pmap2.p[0::2] + pmap2.p[1::2]
    ref_err = float(np.abs(agg - pmap.p).max())
    means = mean_probabilities(pmap)
    means2 = mean_probabilities(pmap2)
    mean_err = float(np.abs(means2[0::2] + means2[1::2] - means).max())
    results.append(
        CheckResult(
            "refinement-aggregation",
            ref_err <= REL_TOL and mean_err <= REL_TOL,
            f"max per-sample error {ref_err:.3e}, mean-prob error {mean_err:.3e}",
        )
    )

    report = feature_report(pmap)
    tiling = all(
        report.gamma_intervals[k, 1] == report.gamma_intervals[k + 1, 0]
        for k in range(k_regions - 1)
    )
    ends = (
        report.gamma_intervals[0, 0] == report.iams_gamma[0]
        and report.gamma_intervals[-1, 1] == report.iams_gamma[1]
    )
    results.append(
        CheckResult(
            "gamma-interval-tiling",
            tiling and ends,
            "peak intervals adjacent and flush with the overall bounds",
        )
    )
    if report.iams_sll is None:
        results.append(
            CheckResult("sll-endpoint-coverage", True, "not applicable (no sidelobe)")
        )
    else:
        sll_cov = (
            report.sll_intervals[0, 0] == report.iams_sll[0]
            and report.sll_intervals[-1, 1] == report.iams_sll[1]
        )
        results.append(
            CheckResult(
                "sll-endpoint-coverage",
                sll_cov,
                "first/last sidelobe intervals coincide with the overall bounds",
            )
        )

    mean_sum = float(np.abs(means.sum() - 1.0))
    results.append(
        CheckResult(
            "mean-probability-sum",
            mean_sum <= REL_TOL,
            f"|sum mean_probs - 1| = {mean_sum:.3e}",
        )
    )

    slack = REL_TOL * np.maximum(bounds.p_hi, 1e-300)
    lo_viol = int(np.sum(mc.per_u_min < bounds.p_lo - slack))
    hi_viol = int(np.sum(mc.per_u_max > bounds.p_hi + slack))
    results.append(
        CheckResult(
            "mc-inclusion",
            lo_viol == 0 and hi_viol == 0,
            f"{mc.n_samples} samples, {lo_viol + hi_viol} bound violations",
        )
    )

    # informational: the ring model is an area ratio, not the induced
    # density, so only the distance between the two is reported
    tv = np.sort(0.5 * np.abs(mc.region_frequencies - pmap.p).sum(axis=0))
    # np.median would import numpy.ma, about 1 MiB of resident memory
    median = 0.5 * (tv[(tv.size - 1) // 2] + tv[tv.size // 2])
    results.append(
        CheckResult(
            "mc-ring-frequencies",
            True,
            "total-variation distance to ring probabilities: "
            f"median {median:.3f}, max {tv[-1]:.3f} (informational)",
        )
    )

    results.append(_symmetry_check(pmap))
    results.append(_zero_tolerance_check(bounds, k_regions))
    results.append(_oracle_spot_check(pmap))
    return results


def _symmetry_check(pmap) -> CheckResult:
    """Recompute the mirrored rows among the oracle directions and their mirror images.

    Sums those rows directly, without the mirror, and compares their
    regions (by their support functions along N_RAYS directions), modulus
    bounds and ring probabilities with the ones the curve and the map
    copied from the rows at -u.
    """
    bounds = pmap.bounds
    n_u, mirrored = len(bounds.grid), bounds.mirrored
    if mirrored == 0:
        return CheckResult("pattern-symmetry", True, "not applicable (no mirrored rows)")
    rows = sorted({j for i in _oracle_directions(n_u) for j in (i, n_u - 1 - i) if j < mirrored})
    # a grid of only u < 0 samples is never mirrored: every row is summed
    vertices, n_vertices, lo, hi = interval_af_curve(
        bounds.scenario, AngularGrid(bounds.grid.samples[rows]), bounds.arc_points
    )[:4]
    scale = float(bounds.modulus_hi.max())
    rays = np.exp(2j * np.pi * np.arange(N_RAYS) / N_RAYS)[:, None]
    err_region = float(
        np.abs(_support(vertices, rays) - _support(bounds.vertices[rows], rays)).max()
    ) / scale
    err_mod = max(
        float(np.abs(lo - bounds.modulus_lo[rows]).max()),
        float(np.abs(hi - bounds.modulus_hi[rows]).max()),
    ) / scale
    p, _ = _ring_probabilities(_ring_radii(lo, hi, pmap.k_regions), vertices, n_vertices)
    err_p = float(np.abs(p - pmap.p[:, rows]).max())
    return CheckResult(
        "pattern-symmetry",
        max(err_region, err_mod, err_p) <= REL_TOL,
        f"{len(rows)} mirrored directions summed directly: max relative error of regions "
        f"{err_region:.3e}, modulus bounds {err_mod:.3e}; max ring-probability error "
        f"{err_p:.3e}",
    )


def _support(vertices, rays) -> np.ndarray:
    """(rows, rays) support function of each padded region along each unit ray."""
    return (vertices[:, None, :] * rays.conj()).real.max(axis=2)


def _zero_tolerance_check(bounds, k_regions) -> CheckResult:
    scenario = bounds.scenario
    collapsed = scenario_from_tolerances(
        [(e.nominal_amplitude, e.nominal_phase) for e in scenario.elements],
        xi=0.0,
        gamma=0.0,
        spacing=scenario.spacing,
    )
    # a zero-width sector is a segment whatever the arc_points
    b = power_bounds(collapsed, bounds.grid)
    nominal_power = b.nominal_power
    # The bounds of a point region are widened by the rounding allowance on
    # each side, which also covers the rounding of the nominal pattern: they
    # must contain it and be no wider than twice the allowance.
    tol = 1e-9 * b.peak_power
    inside = np.all(b.p_lo - tol <= nominal_power) and np.all(nominal_power <= b.p_hi + tol)
    width = float((b.modulus_hi - b.modulus_lo).max())
    narrow = width <= 2.0 * b.allowance + 1e-9 * np.sqrt(b.peak_power)
    dev = float(np.maximum(b.p_hi - nominal_power, nominal_power - b.p_lo).max())
    pm = probability_map(b, k_regions)
    ok = bool(inside and narrow and pm.degenerate.all() and np.all(pm.p[0] == 1.0))
    return CheckResult(
        "zero-tolerance-collapse",
        ok,
        "degenerate intervals collapse onto the nominal pattern within the rounding "
        f"allowance {b.allowance:.3e}, max |p - nominal| = {dev:.3e} "
        "(warning: all ring probability assigned to the first ring by convention)",
    )


def _oracle_directions(n_u: int) -> list[int]:
    """The four grid rows the area oracle checks."""
    return sorted({n_u // 6, n_u // 3, n_u // 2, (5 * n_u) // 6})


def _oracle_spot_check(pmap) -> CheckResult:
    bounds = pmap.bounds
    n_u = len(bounds.grid)
    worst = 0.0
    for i in _oracle_directions(n_u):
        if pmap.degenerate[i]:
            continue
        region = bounds.vertices[i, : bounds.n_vertices[i]]
        covered = disc_polygon_area_quadrature(pmap.ring_radii[i], region)
        if covered[-1] <= 0.0:
            continue
        oracle = np.diff(covered) / covered[-1]
        worst = max(worst, float(np.abs(pmap.p[:, i] - oracle).max()))
    return CheckResult(
        "area-oracle-spot-check",
        worst <= 1e-3,
        f"max |p_k - quadrature oracle| = {worst:.3e}",
    )


def format_results(results: list[CheckResult]) -> str:
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status}  {res.name:28s} {res.detail}")
    return "\n".join(lines)
