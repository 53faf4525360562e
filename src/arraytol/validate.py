"""Self-check suite: one run of a scenario, built here, then structural invariants and oracles.

These checks back the `validate` CLI command.  run_validation builds the
run it checks (one region pass that takes K rings and a Monte Carlo report),
so no caller wires a sink or a ring count for it.  The area oracle splits
a region once into its lower and upper chains, cuts its x-range into slabs
on which each side is one chain line or one semicircle, and integrates
every slab in closed form: a computation path independent of the
geometry kernel's fan from the centre, with which it shares only the
edge-circle quadratic.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .iams import interval_af_curve, power_bounds
from .model import AngularGrid, ArrayScenario, scenario_from_tolerances
from .montecarlo import run_mc
from .pia import feature_report, mainlobe_indices

REL_TOL = 1e-9
# the most region copies it makes: 4 oracle rows, their partners, 4 summed again
KEPT_REGIONS = 2 * 4 + 4
N_RAYS = 64  # directions along which pattern-symmetry compares regions
# a ring radius's distance from lo + (hi - lo) * (k / K), relative to hi
# (at most 0.99 eps on the benchmark workloads and CI's smoke configs)
RADII_TOL = 4.0 * float(np.finfo(np.float64).eps)

# The area oracle's rounding bar on a region's ring probabilities is
# ROUNDING_BAR * n * P * R / A, for n vertices, perimeter P, farthest vertex
# modulus R and area A: each area sums about n terms, each rounded by about
# eps * P * R.  An estimate, not a proof: over 2408 rows of the benchmark
# workloads, Taylor-256, the CI smoke configs and narrower twins of its
# narrow pattern, the kernel and the oracle differed by at most
# 0.67 * n * eps * P * R / A.
ROUNDING_BAR = 64.0 * float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def disc_polygon_area_exact(radii, vertices) -> np.ndarray:
    """Area of one convex region inside the disc of each radius (independent oracle).

    vertices is a convex CCW vertex ring.  It is split once into a lower
    chain, from the lowest of its leftmost vertices to the lowest of its
    rightmost, and an upper chain, from the highest of its rightmost back to
    the highest of its leftmost, so a vertical extreme edge is in neither.
    For each radius in turn the x-range is cut at every vertex abscissa and
    every edge-circle crossing; on each slab the top is then one upper-chain
    line or the upper semicircle, and the bottom one lower-chain line or the
    lower semicircle, whichever holds at the slab's midpoint.  A slab
    integrates exactly, as the trapezoid under its ends plus, for each arc
    side, the circular segment r**2 (theta - sin theta) / 2 over its chord:
    the circle's integral (x sqrt(r**2 - x**2) + r**2 asin(x / r)) / 2 in a
    form whose rounding grows with the slab's width, not with r**2.  The
    temporaries are a few arrays as long as one radius's slabs.
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

    # edge a + t d, 0 < t < 1, crosses the circle where
    # |d|**2 t**2 + 2 Re(conj(a) d) t + |a|**2 - r**2 = 0
    d = np.roll(vs, -1) - vs
    dd, b, aa = np.abs(d) ** 2, (vs.conj() * d).real, np.abs(vs) ** 2
    areas = np.zeros(radii.shape)
    for i, r in enumerate(radii.tolist()):
        x_lo, x_hi = max(vs[low_left].real, -r), min(vs[high_right].real, r)
        if not x_lo < x_hi:
            continue
        root = np.sqrt(np.maximum(b * b - dd * (aa - r * r), 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero-length edge crosses nothing
            t = (-b + np.array([[-1.0], [1.0]]) * root) / dd
        crossings = (vs.real + t * d.real)[(t > 0.0) & (t < 1.0)]
        xs = np.sort(np.clip(np.concatenate((vs.real, crossings)), x_lo, x_hi))
        xs = xs[np.append(True, xs[1:] != xs[:-1])]  # np.unique imports numpy.ma

        def sides(x):
            """The upper semicircle, the upper chain and the lower chain at x."""
            return (np.sqrt(np.maximum((r - x) * (r + x), 0.0)),
                    np.interp(x, upper.real, upper.imag), np.interp(x, lower.real, lower.imag))

        arc, hi, lo = sides(0.5 * (xs[:-1] + xs[1:]))  # at the slab midpoints
        arc_top, arc_bottom = arc < hi, -arc > lo
        inside = np.minimum(arc, hi) > np.maximum(-arc, lo)
        arc, hi, lo = sides(xs)  # at the slab ends
        widths = [np.where(arc_top, arc[ends], hi[ends]) - np.where(arc_bottom, -arc[ends], lo[ends])
                  for ends in (slice(None, -1), slice(1, None))]
        trapezoids = 0.5 * (widths[0] + widths[1]) * np.diff(xs)
        half_chord = 0.5 * np.hypot(np.diff(xs), np.diff(arc))
        theta = 2.0 * np.arcsin(np.minimum(half_chord / r, 1.0))
        segments = 0.5 * r * r * (theta - np.sin(theta))
        areas[i] = np.sum((trapezoids + segments * (arc_top.astype(float) + arc_bottom))[inside])
    return areas


def _region_sink(rows) -> tuple[dict, Callable]:
    """({row: region}, sink): a region-pass sink that keeps the regions at the grid rows in rows.

    Each region, mirror images included, is kept unpadded, as a copy, so no
    pass block outlives the sink call that handed it over.
    """
    regions, wanted = {}, set(rows)

    def sink(block):
        for first, vertices, n_vertices in block.regions():
            for i in wanted.intersection(range(first, first + len(n_vertices))):
                regions[i] = vertices[i - first, : n_vertices[i - first]].copy()

    return regions, sink


def run_validation(
    scenario: ArrayScenario, grid: AngularGrid, k_regions: int, n_samples: int, *,
    arc_points: int = 8, seed: int = 0,
) -> list[CheckResult]:
    """Build one run of scenario on grid, as the `validate` command does, and check it.

    The run is one region pass (power_bounds at arc_points) that takes the
    ring probabilities of k_regions rings, and whose sink keeps a copy of
    the regions at the area oracle's four grid rows and their mirror
    partners; and a Monte Carlo report of n_samples draws from that pass's
    curve and seed, with no probes.  The checks then build only what they
    add: the scenario's zero-tolerance collapse and the mirrored rows among
    the kept ones summed again, directly, from the curve's sectors.  The
    seven entries, in order: gamma-interval-tiling, sll-endpoint-coverage,
    mc-inclusion, mc-ring-frequencies (informational: it always passes),
    pattern-symmetry, zero-tolerance-collapse and area-oracle-spot-check,
    each with a pass/fail verdict; every other one can fail.
    """
    n_u = len(grid)
    directions = sorted({n_u // 6, n_u // 3, n_u // 2, (5 * n_u) // 6})  # the area oracle's rows
    regions, sink = _region_sink({j for i in directions for j in (i, n_u - 1 - i)})
    bounds = power_bounds(scenario, grid, arc_points, k_regions, sink)
    mc = run_mc(bounds, n_samples, seed=seed)
    results: list[CheckResult] = []

    # the curve's ring radii against a uniform split of its bounds, and the
    # report's intervals against the curve's bounds at its peak and the
    # highest of each bound outside the mainlobe
    report = feature_report(bounds)
    lo, hi = bounds.modulus_lo[:, None], bounds.modulus_hi[:, None]
    split = np.arange(k_regions + 1) / k_regions
    uniform = bool(np.all(np.abs(bounds.ring_radii - (lo + (hi - lo) * split)) <= RADII_TOL * hi))
    i_max, left, right = mainlobe_indices(bounds.nominal_power)
    lo_db, hi_db = bounds.p_lo_db, bounds.p_hi_db
    ends = (
        report.gamma_intervals[0, 0] == lo_db[i_max]
        and report.gamma_intervals[-1, 1] == hi_db[i_max]
    )
    results.append(
        CheckResult(
            "gamma-interval-tiling",
            uniform and ends,
            "ring radii uniform, peak intervals flush with the overall bounds",
        )
    )
    if report.iams_sll is None:
        results.append(
            CheckResult("sll-endpoint-coverage", True, "not applicable (no sidelobe)")
        )
    else:
        side = np.r_[:left, right + 1 : n_u]  # the grid rows outside the mainlobe
        sll_cov = (
            report.sll_intervals[0, 0] == lo_db[side].max() - hi_db[i_max]
            and report.sll_intervals[-1, 1] == hi_db[side].max() - lo_db[i_max]
        )
        results.append(
            CheckResult(
                "sll-endpoint-coverage",
                sll_cov,
                "first/last sidelobe intervals coincide with the overall bounds",
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
    tv = np.sort(0.5 * np.abs(mc.region_frequencies - bounds.p).sum(axis=0))
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

    results.append(_symmetry_check(bounds, regions))
    results.append(_zero_tolerance_check(bounds))
    results.append(_oracle_spot_check(bounds, regions, directions))
    return results


def _symmetry_check(bounds, regions) -> CheckResult:
    """Recompute the mirrored rows among regions, the rows run_validation keeps, without the mirror.

    Sums those rows directly from the curve's sectors, in one region pass
    over them alone, and compares their regions (by their support functions
    along N_RAYS directions) with the mirror images the curve's pass handed
    its sink, and their modulus bounds and ring probabilities with the ones
    the curve copied from the rows at -u.
    """
    if bounds.mirrored == 0:
        return CheckResult("pattern-symmetry", True, "not applicable (no mirrored rows)")
    rows = sorted(i for i in regions if i < bounds.mirrored)
    rays = np.exp(2j * np.pi * np.arange(N_RAYS) / N_RAYS)[:, None]
    # a grid of only u < 0 samples is never mirrored: every row is summed
    summed, sink = _region_sink(range(len(rows)))
    grid = AngularGrid(bounds.grid.samples[rows])
    direct = interval_af_curve(bounds.scenario, grid, bounds.sectors, bounds.k_regions, sink)
    scale = float(bounds.modulus_hi.max())
    err_region = max(
        float(np.abs(_support(summed[j], rays) - _support(regions[i], rays)).max())
        for j, i in enumerate(rows)
    ) / scale
    err_mod = max(
        float(np.abs(direct.modulus_lo - bounds.modulus_lo[rows]).max()),
        float(np.abs(direct.modulus_hi - bounds.modulus_hi[rows]).max()),
    ) / scale
    err_p = float(np.abs(direct.p - bounds.p[:, rows]).max())
    return CheckResult(
        "pattern-symmetry",
        max(err_region, err_mod, err_p) <= REL_TOL,
        f"{len(rows)} mirrored directions summed directly: max relative error of regions "
        f"{err_region:.3e}, modulus bounds {err_mod:.3e}; max ring-probability error "
        f"{err_p:.3e}",
    )


def _support(vertices, rays) -> np.ndarray:
    """The support function of a region along each unit ray of rays, one ray at a time."""
    return np.array([(vertices * ray.conj()).real.max() for ray in rays])


def _zero_tolerance_check(bounds) -> CheckResult:
    scenario = bounds.scenario
    collapsed = scenario_from_tolerances(
        [(e.nominal_amplitude, e.nominal_phase) for e in scenario.elements],
        xi=0.0,
        gamma=0.0,
        spacing=scenario.spacing,
    )
    # a zero-width sector is a segment whatever the arc_points
    b = power_bounds(collapsed, bounds.grid, k_regions=bounds.k_regions)
    nominal_power = b.nominal_power
    # The bounds of a point region are widened by the rounding allowance on
    # each side, which also covers the rounding of the nominal pattern: they
    # must contain it and be no wider than twice the allowance.
    tol = 1e-9 * b.peak_power
    inside = np.all(b.p_lo - tol <= nominal_power) and np.all(nominal_power <= b.p_hi + tol)
    width = float((b.modulus_hi - b.modulus_lo).max())
    narrow = width <= 2.0 * b.allowance + 1e-9 * np.sqrt(b.peak_power)
    dev = float(np.maximum(b.p_hi - nominal_power, nominal_power - b.p_lo).max())
    ok = bool(inside and narrow and b.degenerate.all() and np.all(b.p[0] == 1.0))
    return CheckResult(
        "zero-tolerance-collapse",
        ok,
        "degenerate intervals collapse onto the nominal pattern within the rounding "
        f"allowance {b.allowance:.3e}, max |p - nominal| = {dev:.3e} "
        "(warning: all ring probability assigned to the first ring by convention)",
    )


def _oracle_spot_check(bounds, regions, directions) -> CheckResult:
    """The ring probabilities at the grid rows in directions against the exact areas of regions.

    Each row's ring probabilities must lie within its rounding bar,
    ROUNDING_BAR * n * P * R / A, of the oracle's.  Rows whose region has
    no area are skipped; when every row is, the check is not applicable.
    """
    worst = ratio = 0.0
    integrated = 0
    radii = bounds.ring_radii
    for i in directions:
        if bounds.degenerate[i]:
            continue
        vs = regions[i]
        covered = disc_polygon_area_exact(radii[i], vs)
        if covered[-1] <= 0.0:
            continue
        err = float(np.abs(bounds.p[:, i] - np.diff(covered) / covered[-1]).max())
        perimeter = float(np.abs(np.diff(vs, append=vs[:1])).sum())
        bar = ROUNDING_BAR * vs.size * perimeter * float(np.abs(vs).max()) / covered[-1]
        worst, ratio = max(worst, err), max(ratio, err / bar)
        integrated += 1
    if integrated == 0:
        return CheckResult(
            "area-oracle-spot-check", True, "not applicable (no oracle direction's region has area)"
        )
    return CheckResult(
        "area-oracle-spot-check",
        ratio <= 1.0,
        f"max |p_k - exact oracle| = {worst:.3e}, at most {ratio:.3e} of the row's "
        "rounding bar 64 n eps P R / A",
    )


def format_results(results: list[CheckResult]) -> str:
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status}  {res.name:28s} {res.detail}")
    return "\n".join(lines)
