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
from .pia import feature_report, mean_probabilities, probability_map

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

    The bounds must hold the ring probabilities of K and 2K rings
    (power_bounds' ring_counts).  Builds only what the checks add: the
    scenario's zero-tolerance collapse, a few regions summed again from the
    curve's sectors, and the oracle slices.  Every entry carries a pass/fail
    verdict.
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

    regions = _oracle_regions(bounds)
    results.append(_symmetry_check(pmap, regions))
    results.append(_zero_tolerance_check(bounds, k_regions))
    results.append(_oracle_spot_check(pmap, regions))
    return results


def _pass_regions(bounds, rows, ring_counts=()):
    """({row: unpadded region}, pass): the region pass over the curve's sectors at grid rows.

    rows is a sorted list, and its samples are the pass's grid.
    """
    regions = {}

    def sink(first, vertices, n_vertices):
        regions.update((i, row[:n]) for i, row, n in zip(rows[first:], vertices, n_vertices))

    grid = AngularGrid(bounds.grid.samples[rows])
    return regions, interval_af_curve(bounds.scenario, grid, bounds.sectors, ring_counts, sink)


def _oracle_regions(bounds) -> dict:
    """{row: unpadded region} of the oracle directions, from one region pass.

    Where the curve mirrored, the rows' mirror partners join them, so their
    samples are their own mirror image: the pass mirrors as the curve's did
    and hands over the curve's regions bit for bit, mirror images included.
    """
    rows = _oracle_directions(len(bounds.grid))
    if bounds.mirrored:
        rows = sorted({j for i in rows for j in (i, len(bounds.grid) - 1 - i)})
    return _pass_regions(bounds, rows)[0]


def _symmetry_check(pmap, regions) -> CheckResult:
    """Recompute the mirrored rows among regions, the _oracle_regions, without the mirror.

    Sums those rows directly from the curve's sectors and compares their
    regions (by their support functions along N_RAYS directions) with the
    mirror images in regions, and their modulus bounds and ring
    probabilities with the ones the curve and the map copied from the rows
    at -u.
    """
    bounds = pmap.bounds
    if bounds.mirrored == 0:
        return CheckResult("pattern-symmetry", True, "not applicable (no mirrored rows)")
    rows = sorted(i for i in regions if i < bounds.mirrored)
    rays = np.exp(2j * np.pi * np.arange(N_RAYS) / N_RAYS)[:, None]
    # a grid of only u < 0 samples is never mirrored: every row is summed
    summed, direct = _pass_regions(bounds, rows, (pmap.k_regions,))
    scale = float(bounds.modulus_hi.max())
    err_region = max(
        float(np.abs(_support(summed[i], rays) - _support(regions[i], rays)).max())
        for i in rows
    ) / scale
    err_mod = max(
        float(np.abs(direct.modulus_lo - bounds.modulus_lo[rows]).max()),
        float(np.abs(direct.modulus_hi - bounds.modulus_hi[rows]).max()),
    ) / scale
    err_p = float(np.abs(direct.rings[pmap.k_regions][0] - pmap.p[:, rows]).max())
    return CheckResult(
        "pattern-symmetry",
        max(err_region, err_mod, err_p) <= REL_TOL,
        f"{len(rows)} mirrored directions summed directly: max relative error of regions "
        f"{err_region:.3e}, modulus bounds {err_mod:.3e}; max ring-probability error "
        f"{err_p:.3e}",
    )


def _support(vertices, rays) -> np.ndarray:
    """The support function of a region along each unit ray of the (rays, 1) column."""
    return (vertices * rays.conj()).real.max(axis=1)


def _zero_tolerance_check(bounds, k_regions) -> CheckResult:
    scenario = bounds.scenario
    collapsed = scenario_from_tolerances(
        [(e.nominal_amplitude, e.nominal_phase) for e in scenario.elements],
        xi=0.0,
        gamma=0.0,
        spacing=scenario.spacing,
    )
    # a zero-width sector is a segment whatever the arc_points
    b = power_bounds(collapsed, bounds.grid, ring_counts=(k_regions,))
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


def _oracle_spot_check(pmap, regions) -> CheckResult:
    """The ring probabilities of the oracle directions against the quadrature of regions."""
    worst = 0.0
    for i in _oracle_directions(len(pmap.bounds.grid)):
        if pmap.degenerate[i]:
            continue
        covered = disc_polygon_area_quadrature(pmap.ring_radii[i], regions[i])
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
