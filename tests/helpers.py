"""Independent oracles, input generators and one-row calls shared across the test suite.

Every oracle here computes areas or memberships through a different
algorithm than the package (closed-form x-slabs, point grids, scipy hulls,
the shoelace formula, the closed-form circular segment, element-by-element
math.cos/sin for the nominal pattern, an element loop with its own
steering phases for the nominal curve, numpy's complex exp for the
excitation draws, SplitMix64 one Python integer at a time for the random
words, the law of cosines for the exact laws of one toleranced element
and of two with fixed amplitudes), so agreement is evidence rather than
tautology.

The package keeps polygons only as padded arrays (arraytol.geometry).  The
one-row calls here run its batched kernels on a single polygon, given and
returned as a 1-D array of its counter-clockwise vertices; direction_region
takes one direction's region from the package's region pass.
"""

from __future__ import annotations

import contextlib
import math
import runpy
import signal
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull

from arraytol import AngularGrid, ValidationError
from arraytol.geometry import (
    EPS_GEOM,
    _normalize,
    disc_polygon_areas,
    modulus_bounds,
    polygonize_interval_phasors,
    rotated_minkowski_sums,
)
from arraytol.iams import _ring_probabilities, element_sectors, interval_af_curve
from arraytol.validate import _region_sink


def taylor_taper(n_elements: int, sll_db: float = 25.0, nbar: int = 3) -> np.ndarray:
    """One-parameter-nbar Taylor line-source taper sampled at element positions.

    Returns amplitudes normalized to a unit maximum.  The 16-element,
    -25 dB, nbar=3 taper rounds to the published 3-digit test values.
    """
    r0 = 10.0 ** (sll_db / 20.0)
    big_a = math.acosh(r0) / math.pi
    sigma2 = nbar**2 / (big_a**2 + (nbar - 0.5) ** 2)

    def coeff(m: int) -> float:
        num = 1.0
        for n in range(1, nbar):
            num *= 1.0 - m**2 / (sigma2 * (big_a**2 + (n - 0.5) ** 2))
        den = 1.0
        for n in range(1, nbar):
            if n != m:
                den *= 1.0 - (m / n) ** 2
        return ((-1) ** (m + 1) / 2.0) * num / den

    coeffs = [coeff(m) for m in range(1, nbar)]
    n = np.arange(1, n_elements + 1)
    pos = (n - (n_elements + 1) / 2.0) / (n_elements / 2.0)
    g = 1.0 + 2.0 * sum(c * np.cos(math.pi * m * pos) for m, c in enumerate(coeffs, start=1))
    return g / g.max()


def workload_config(name: str) -> dict:
    """The seed-0 config of a perfbench workload, from perfbench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    return runpy.run_path(str(path))["WORKLOADS"][name].config(0)


# The smoke config: 4 elements, symmetric intervals, 41 directions.  CI's
# console-script step writes the same config to smoke.json.
SMOKE = {
    "spacing_wavelengths": 0.5,
    "elements": [{"amplitude": a, "phase_deg": 0.0} for a in (0.6, 1.0, 1.0, 0.6)],
    "xi_percent": 2.0,
    "gamma_deg": 4.0,
    "k_regions": 3,
    "n_u": 41,
    "arc_points": 4,
    "mc_samples": 500,
    "seed": 1,
}

_SMOKE_ELEMENTS = SMOKE["elements"]

# Legal but awkward variants of SMOKE, each a whole config.
AWKWARD = {name: SMOKE | changes for name, changes in {
    # 2 elements: the mainlobe reaches both grid edges, so there is no sidelobe
    "2-elements": {"elements": _SMOKE_ELEMENTS[:2]},
    # a wavelength apart: grating lobes
    "grating": {"spacing_wavelengths": 1.0},
    # zero tolerances: every sector, so every region, is a point
    "zero-tol": {"xi_percent": 0.0, "gamma_deg": 0.0},
    # a beam steered 60 deg/element: no phase interval is symmetric, so no mirror
    "steered-60": {
        "elements": [dict(e, phase_deg=60.0 * i) for i, e in enumerate(_SMOKE_ELEMENTS)]
    },
    # amplitude tolerances only: each sector a radial segment, or at amplitude 0 a point
    "amp-only": {
        "gamma_deg": 0.0,
        "elements": [dict(e, amplitude=0.0) if i == 1 else e
                     for i, e in enumerate(_SMOKE_ELEMENTS)],
    },
    # phase tolerances only: sectors whose repeated corners are dropped
    "phase-only": {"xi_percent": 0.0},
    # phase intervals 1e-9 deg either side of nominal: sectors far narrower than the sum's weld
    "narrow": {"elements": [dict(e, phase_lo_deg=e["phase_deg"] - 1e-9,
                                 phase_hi_deg=e["phase_deg"] + 1e-9) for e in _SMOKE_ELEMENTS]},
    # a fixed element beside a sliver 5.9e-40 deg wide, whose bulge vertices
    # round onto one another at u = 1
    "sliver": {
        "spacing_wavelengths": 0.25,
        "elements": [
            {"amplitude": 1.0, "phase_deg": 0.0, "amplitude_lo": 1.0, "amplitude_hi": 1.0,
             "phase_lo_deg": 0.0, "phase_hi_deg": 0.0},
            {"amplitude": 1.0, "phase_deg": 0.0, "amplitude_lo": 0.75, "amplitude_hi": 1.0,
             "phase_lo_deg": 0.0, "phase_hi_deg": 5.885811931035676e-40},
        ],
    },
    # a first phase interval 1e-9 deg off symmetric: no mirror
    "smoke-direct": {"elements": [dict(_SMOKE_ELEMENTS[0], phase_lo_deg=-4.0,
                                       phase_hi_deg=4.0 + 1e-9), *_SMOKE_ELEMENTS[1:]]},
    # amplitudes 1e-9 times smaller: the geometry tolerances are relative
    "smoke-1e-9": {"elements": [dict(e, amplitude=1e-9 * e["amplitude"]) for e in _SMOKE_ELEMENTS]},
}.items()}


@contextlib.contextmanager
def within(seconds: int):
    """Raise TimeoutError in the with block once it has run seconds (SIGALRM), so a hang fails."""
    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def pass_regions(scenario, grid, arc_points: int = 8, k_regions=None):
    """(regions, pass): each grid row's region as the region pass's Blocks yield it to its sink.

    The pass sums the scenario's element_sectors at arc_points.  regions[i]
    is row i's unpadded vertex array, as validate._region_sink keeps it from
    Block.regions(), mirror images included; pass is the PowerBoundsCurve
    interval_af_curve returns.
    """
    kept, sink = _region_sink(range(len(grid)))
    sectors = element_sectors(scenario, arc_points)
    curve = interval_af_curve(scenario, grid, sectors, k_regions, sink)
    return [kept[i] for i in range(len(grid))], curve


def direction_region(scenario, u: float, arc_points: int = 8):
    """(region, modulus_lo, modulus_hi) at one direction: the region pass over a one-sample grid."""
    (region,), r = pass_regions(scenario, AngularGrid([u]), arc_points)
    return region, float(r.modulus_lo[0]), float(r.modulus_hi[0])


def nominal_af(scenario, u: float) -> complex:
    """Crisp array factor at one direction, summed element by element with math.cos/sin."""
    total = 0.0 + 0.0j
    for n, el in enumerate(scenario.elements):
        psi = 2.0 * math.pi * scenario.spacing * n * u
        total += el.nominal_amplitude * complex(
            math.cos(el.nominal_phase + psi), math.sin(el.nominal_phase + psi)
        )
    return total


def nominal_af_curve(scenario, grid) -> np.ndarray:
    """The nominal array factor over a grid, summed element by element: the bitwise reference.

    The elements are added in order, one grid-long term at a time, each
    term's steering phase formed here as 2*pi*spacing * (u * n), so no
    (N, len(grid)) array is held; the region pass's nominal pattern must
    equal it bit for bit.
    """
    u, step = grid.samples, 2.0 * math.pi * scenario.spacing
    terms = (
        el.nominal_amplitude * np.exp(1j * (el.nominal_phase + step * (u * n)))
        for n, el in enumerate(scenario.elements)
    )
    total = next(terms)
    for term in terms:
        total += term
    return total


def padded(polys) -> tuple[np.ndarray, np.ndarray]:
    """Vertex rings as one padded array: each row repeats its vertex 0 up to the widest."""
    polys = [np.asarray(p, dtype=np.complex128) for p in polys]
    width = max(len(p) for p in polys)
    rows = [np.concatenate((p, np.repeat(p[:1], width - len(p)))) for p in polys]
    return np.array(rows), np.array([len(p) for p in polys])


def normalized_rows(points) -> tuple[np.ndarray, np.ndarray]:
    """(vertices, n_vertices) of CCW vertex rings normalized by the Minkowski sums' _normalize."""
    vs = np.asarray(points, dtype=np.complex128)
    return _normalize(vs, np.roll(vs, -1, axis=1) - vs)[:2]


def convex_polygon(points) -> np.ndarray:
    """A CCW vertex ring normalized by the Minkowski sums' _normalize as a one-row batch."""
    arr = np.array(points, dtype=np.complex128).ravel()  # a copy: _normalize may return it
    vertices, n_vertices = normalized_rows(arr[None])
    return vertices[0, : n_vertices[0]]


def polygonize_interval_phasor(amp_lo, amp_hi, phase_lo, phase_hi, arc_points: int = 8):
    """The covering polygon of one annular sector: a one-row polygonize_interval_phasors."""
    vertices, n_vertices = polygonize_interval_phasors(
        [(amp_lo, amp_hi, phase_lo, phase_hi)], arc_points
    )
    return vertices[0, : n_vertices[0]]


def minkowski_sum_many(polys) -> np.ndarray:
    """Minkowski sum of vertex rings: one row of rotated_minkowski_sums at zero angles."""
    polys = list(polys)
    vertices, n_vertices, _ = rotated_minkowski_sums(*padded(polys), np.zeros(len(polys)))
    return vertices[0, : n_vertices[0]]


def distance_bounds_to_origin(poly) -> tuple[float, float]:
    """(min, max) distance from the origin to one polygon: a one-row modulus_bounds."""
    lo, hi = modulus_bounds(np.asarray(poly)[None], [len(poly)])
    return float(lo[0]), float(hi[0])


def contains_point(poly, z: complex) -> bool:
    """Closed membership with EPS_GEOM slack: the polygon moved by -z reaches the origin."""
    return distance_bounds_to_origin(np.asarray(poly) - z)[0] <= EPS_GEOM


def polygon_area(points) -> float:
    """Absolute shoelace area of a vertex ring; below 3 points the area is 0."""
    arr = np.asarray(points, dtype=np.complex128).ravel()
    if arr.size < 3:
        return 0.0
    nxt = np.roll(arr, -1)
    return 0.5 * abs(float(np.sum(arr.real * nxt.imag - nxt.real * arr.imag)))


def disc_polygon_intersection_area(r: float, poly) -> float:
    """Area of disc(0, r) intersected with one polygon: a one-row disc_polygon_areas.

    Exactly 0.0 when the polygon has no area or lies at distance r or more
    from the origin (tangency included).
    """
    poly = np.asarray(poly, dtype=np.complex128)
    if r == 0.0 or len(poly) < 3 or distance_bounds_to_origin(poly)[0] >= r:
        return 0.0
    return max(float(disc_polygon_areas([[r]], poly[None], [len(poly)])[0, 0]), 0.0)


def region_probabilities(region, radii) -> np.ndarray:
    """Ring probabilities of one region between consecutive radii: a one-row map kernel."""
    p, _ = _ring_probabilities(np.asarray(radii)[None], np.asarray(region)[None], [len(region)])
    return p[:, 0]


def boundary_distance(a, b) -> float:
    """Two-way distance between the boundaries of two vertex rings.

    The largest distance from a vertex of either ring to the nearest point
    on the other ring's edges: 0 for the same polygon whatever vertex each
    ring starts at.
    """

    def one_way(points, ring):
        d = np.roll(ring, -1) - ring
        dd = d.real**2 + d.imag**2
        rel = points[:, None] - ring[None, :]
        t = np.clip((rel * d.conj()).real / np.where(dd > 0.0, dd, 1.0), 0.0, 1.0)
        return float(np.abs(rel - t * d).min(axis=1).max())

    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    return max(one_way(a, b), one_way(b, a))


def splitmix64(state: int) -> tuple[int, int]:
    """splitmix64.c's next(): the advanced state and its output word, in Python integers."""
    state = (state + 0x9E3779B97F4A7C15) % 2**64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return state, z ^ (z >> 31)


def splitmix64_words(key: int, position: int, count: int) -> list[int]:
    """Words position .. position + count - 1 of the stream under key: splitmix64.c
    run from state key + position * gamma."""
    state, words = (key + position * 0x9E3779B97F4A7C15) % 2**64, []
    for _ in range(count):
        state, word = splitmix64(state)
        words.append(word)
    return words


def stream_key(seed: int) -> int:
    """The key of a seed: the finalizer of splitmix64.c's next() (its output
    from state z - gamma) on lo ^ finalizer(hi), lo and hi the seed's 64-bit words."""
    def mix(z):
        return splitmix64((z - 0x9E3779B97F4A7C15) % 2**64)[1]

    return mix((seed % 2**64) ^ mix(seed >> 64))


def reference_uniforms(seed: int, shape) -> np.ndarray:
    """The first prod(shape) uniforms (w >> 11) * 2**-53 of seed's stream, in C order."""
    words = splitmix64_words(stream_key(seed), 0, math.prod(shape))
    return np.array([(w >> 11) * 2.0**-53 for w in words]).reshape(shape)


def reference_draw(scenario, uniforms) -> np.ndarray:
    """Excitations of uniforms (..., 2N) in [0, 1) by the textbook mapping:
    lo + width * u onto element n's amplitude interval for uniform 2n and
    onto its phase interval for uniform 2n + 1, and amp * exp(j * phase)
    with numpy's complex exp."""
    els = scenario.elements
    lo = np.array([(e.amplitude_lo, e.phase_lo) for e in els]).ravel()
    width = np.array([(e.amplitude_hi, e.phase_hi) for e in els]).ravel() - lo
    x = lo + width * np.asarray(uniforms)
    return x[..., 0::2] * np.exp(1j * x[..., 1::2])


def _config_intervals(config) -> list[tuple[float, float, float, float]]:
    """Each element's (amplitude lo, hi, phase lo, hi) in radians, read from config as
    its README states: explicit endpoints, or else the nominal with xi_percent / gamma_deg."""
    xi, gamma = config.get("xi_percent", 0.0) / 100.0, config.get("gamma_deg", 0.0)
    intervals = []
    for e in config["elements"]:
        a, b = e["amplitude"], e["phase_deg"]
        a_lo, a_hi = e.get("amplitude_lo", a * (1.0 - xi)), e.get("amplitude_hi", a * (1.0 + xi))
        b_lo, b_hi = e.get("phase_lo_deg", b - gamma), e.get("phase_hi_deg", b + gamma)
        intervals.append((a_lo, a_hi, math.radians(b_lo), math.radians(b_hi)))
    return intervals


def one_element_ring_law(config, u: float, radii, nodes: int = 4000) -> np.ndarray:
    """Exact ring probabilities of |AF(u)| when one element of config is toleranced.

    The other elements are fixed, so AF(u) = c + a e^{j theta}, with c their
    sum at psi_n = 2 pi d n u and, for the live element m, a uniform on its
    amplitude interval and theta = phi + psi_m, phi uniform on its phase
    interval, which must have width; c must not be 0.  By the law of cosines,
    |AF|^2 = |c|^2 + a^2 + 2 |c| a cos(theta - arg c), so |AF| < r on the
    theta outside the arc |theta - arg c| < arccos t (mod 2 pi),
    t = (r^2 - |c|^2 - a^2) / (2 |c| a); P(|AF| < r) is the mean over a,
    by the midpoint rule on nodes amplitudes, of that share of theta's
    interval.  Ring k is radii[k] <= |AF| < radii[k + 1], for the K + 1
    radii, except that the first ring holds all below radii[1] and the last
    all from radii[K - 1] on, as run_mc counts its rings.
    """
    intervals = _config_intervals(config)
    (m,) = [n for n, (a_lo, a_hi, b_lo, b_hi) in enumerate(intervals)
            if (a_lo, b_lo) != (a_hi, b_hi)]
    step = 2.0 * math.pi * config["spacing_wavelengths"] * u
    c = sum(a_lo * complex(math.cos(b_lo + step * n), math.sin(b_lo + step * n))
            for n, (a_lo, _, b_lo, _) in enumerate(intervals) if n != m)
    a_lo, a_hi, b_lo, b_hi = intervals[m]
    a = a_lo + (a_hi - a_lo) * (np.arange(nodes) + 0.5) / nodes
    # theta - arg c runs over [lo, hi]
    lo, hi = (b + step * m - math.atan2(c.imag, c.real) for b in (b_lo, b_hi))

    def inside(x, alpha):
        """The length of [0, x] outside the arcs |y| < alpha (mod 2 pi)."""
        turns, rest = np.divmod(x, 2.0 * math.pi)
        period = 2.0 * math.pi - 2.0 * alpha  # the inside's length in a turn
        return turns * period + np.clip(rest - alpha, 0.0, period)

    def cdf(r):
        alpha = np.arccos(np.clip((r * r - abs(c) ** 2 - a * a) / (2.0 * abs(c) * a), -1.0, 1.0))
        return float(np.mean(inside(hi, alpha) - inside(lo, alpha))) / (hi - lo)

    return np.diff([0.0, *(cdf(r) for r in np.asarray(radii)[1:-1]), 1.0])


def two_element_ring_law(config, u: float, radii) -> np.ndarray:
    """Exact ring probabilities of |AF(u)| for two elements of config with fixed amplitudes.

    Element n has amplitude a_n, whose interval must have no width, and a
    phase phi_n uniform on its phase interval [l_n, h_n], of width w_n > 0;
    psi = 2 pi d u is element 1's steering phase.  By the law of cosines,
    |AF|^2 = a_0^2 + a_1^2 + 2 a_0 a_1 cos(psi + D), with D = phi_1 - phi_0,
    so |AF| < r where psi + D lies strictly between alpha and 2 pi - alpha
    (mod 2 pi), alpha = arccos t, t = (r^2 - a_0^2 - a_1^2) / (2 a_0 a_1).
    D's law is trapezoidal: P(D <= x) is the area of {s + y <= x - (l_1 - h_0)}
    in the w_0-by-w_1 box (s, y) >= 0, divided by w_0 w_1, which four ramps
    max(., 0)^2 / 2 give in closed form.  The rings are one_element_ring_law's.
    """
    (a0, a0_hi, l0, h0), (a1, a1_hi, l1, h1) = _config_intervals(config)
    if (a0, a1) != (a0_hi, a1_hi) or not (h0 > l0 and h1 > l1):
        raise ValueError("the law needs fixed amplitudes and phase intervals with width")
    psi = 2.0 * math.pi * config["spacing_wavelengths"] * u

    def ramp(x):
        return np.maximum(x, 0.0) ** 2 / 2.0

    def difference_cdf(x):
        """P(D <= x)."""
        return (ramp(x - (l1 - h0)) - ramp(x - (l1 - l0)) - ramp(x - (h1 - h0))
                + ramp(x - (h1 - l0))) / ((h0 - l0) * (h1 - l1))

    def cdf(r):
        alpha = math.acos(min(max((r * r - a0 * a0 - a1 * a1) / (2.0 * a0 * a1), -1.0), 1.0))
        turns = 2.0 * math.pi * np.arange(-2, 3)  # D spans less than a turn
        inside = difference_cdf(turns + 2.0 * math.pi - alpha - psi) - difference_cdf(
            turns + alpha - psi)
        return float(inside.sum())

    return np.diff([0.0, *(cdf(r) for r in np.asarray(radii)[1:-1]), 1.0])


def circular_segment_area(r: float, a1: complex, a2: complex) -> float:
    """Area of the minor circular segment between chord a1-a2 and the arc.

    Both points must sit on the circle of radius r about the origin.
    """
    if r <= 0.0:
        raise ValidationError("radius must be positive")
    tol = EPS_GEOM * max(1.0, r)
    if abs(abs(a1) - r) > tol or abs(abs(a2) - r) > tol:
        raise ValidationError("segment endpoints must lie on the circle")
    c = abs(a1 - a2)
    if c <= EPS_GEOM:
        return 0.0
    half = min(0.5 * c, r)
    return r * r * math.asin(half / r) - half * math.sqrt(max(r * r - half * half, 0.0))


def disc_convex_area_slab(r: float, verts) -> float:
    """Disc-polygon intersection area, exact: closed-form integrals over x-slabs.

    The slabs are cut at every vertex abscissa and wherever an edge meets
    the circle (np.roots of the edge's quadratic), so on each the region's
    top is one edge line, the lowest of the leftward edges', or the upper
    semicircle, and its bottom one edge line, the highest of the rightward
    edges', or the lower semicircle.  Lines integrate as trapezoids, and an
    arc as the trapezoid under its chord plus the circular segment
    r**2 asin(c / 2r) - (c / 2) sqrt(r**2 - c**2 / 4) of its chord c.
    """
    vs = np.asarray(verts, dtype=complex)
    if r <= 0.0 or vs.size < 3:
        return 0.0
    x_lo = max(float(vs.real.min()), -r)
    x_hi = min(float(vs.real.max()), r)
    if x_hi <= x_lo:
        return 0.0
    d = np.roll(vs, -1) - vs
    cuts = list(vs.real)
    for a, da in zip(vs, d):
        if da != 0.0:
            roots = np.roots([abs(da) ** 2, 2.0 * (a.conjugate() * da).real, abs(a) ** 2 - r * r])
            cuts += [(a + t.real * da).real for t in roots if t.imag == 0.0 and 0.0 < t.real < 1.0]
    xs = np.unique(np.clip(cuts, x_lo, x_hi))
    x0, x1 = xs[:-1], xs[1:]
    mid = 0.5 * (x0 + x1)

    def on_line(edges, x):
        """The line of each edge in edges (an index array) at x."""
        a, da = vs[edges], d[edges]
        return a.imag + da.imag * (x - a.real) / da.real

    upper, lower = np.flatnonzero(d.real < 0.0), np.flatnonzero(d.real > 0.0)
    top_line = upper[np.argmin(on_line(upper[:, None], mid), axis=0)]
    bottom_line = lower[np.argmax(on_line(lower[:, None], mid), axis=0)]

    def circle(x):
        return np.sqrt(np.maximum(r * r - x * x, 0.0))

    arc_top = circle(mid) < on_line(top_line, mid)
    arc_bottom = -circle(mid) > on_line(bottom_line, mid)
    top = [np.where(arc_top, circle(x), on_line(top_line, x)) for x in (x0, x1, mid)]
    bottom = [np.where(arc_bottom, -circle(x), on_line(bottom_line, x)) for x in (x0, x1, mid)]
    half = 0.5 * np.hypot(x1 - x0, circle(x1) - circle(x0))
    segment = r * r * np.arcsin(np.minimum(half / r, 1.0)) - half * np.sqrt(
        np.maximum(r * r - half * half, 0.0)
    )
    slab = 0.5 * (top[0] - bottom[0] + top[1] - bottom[1]) * (x1 - x0)
    slab += segment * (arc_top.astype(float) + arc_bottom)
    return float(np.sum(slab[top[2] > bottom[2]]))


def disc_convex_area_point_grid(r: float, verts, n: int = 1000) -> float:
    """Disc-polygon intersection area by midpoint cell counting."""
    vs = np.asarray(verts, dtype=complex)
    x_lo = max(float(vs.real.min()), -r)
    x_hi = min(float(vs.real.max()), r)
    y_lo = max(float(vs.imag.min()), -r)
    y_hi = min(float(vs.imag.max()), r)
    if x_hi <= x_lo or y_hi <= y_lo:
        return 0.0
    xs = np.linspace(x_lo, x_hi, n + 1)
    ys = np.linspace(y_lo, y_hi, n + 1)
    cx = 0.5 * (xs[:-1] + xs[1:])
    cy = 0.5 * (ys[:-1] + ys[1:])
    gx, gy = np.meshgrid(cx, cy, indexing="ij")
    keep = gx * gx + gy * gy <= r * r
    for i in range(vs.size):
        a = vs[i]
        b = vs[(i + 1) % vs.size]
        keep &= (b.real - a.real) * (gy - a.imag) - (b.imag - a.imag) * (gx - a.real) >= 0.0
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    return float(keep.sum()) * cell


def points_in_convex(verts, pts) -> np.ndarray:
    """Vectorized closed membership of points in a CCW convex polygon."""
    vs = np.asarray(verts, dtype=complex)
    zs = np.asarray(pts, dtype=complex)
    inside = np.ones(zs.shape, dtype=bool)
    for i in range(vs.size):
        a = vs[i]
        b = vs[(i + 1) % vs.size]
        e = b - a
        tol = 1e-9 * max(1.0, abs(e))
        inside &= e.real * (zs.imag - a.imag) - e.imag * (zs.real - a.real) >= -tol
    return inside


def random_convex_vertices(rng: np.random.Generator, n_points: int = 8, scale: float = 2.0,
                           center: complex = 0j) -> np.ndarray:
    """Random CCW convex polygon from the hull of a random point cloud."""
    while True:
        pts = rng.uniform(-scale, scale, (n_points, 2))
        try:
            hull = ConvexHull(pts)
        except Exception:
            continue
        vs = pts[hull.vertices]  # scipy returns CCW order in 2-D
        poly = vs[:, 0] + 1j * vs[:, 1] + center
        if len(poly) >= 3:
            return poly


def minkowski_sum_area_brute(p_verts, q_verts) -> float:
    """Minkowski-sum area via pairwise vertex sums and a scipy hull."""
    ps = np.asarray(p_verts, dtype=complex)
    qs = np.asarray(q_verts, dtype=complex)
    sums = (ps[:, None] + qs[None, :]).ravel()
    pts = np.column_stack((sums.real, sums.imag))
    return float(ConvexHull(pts).volume)


def random_triangle_for_case(rng: np.random.Generator, case: int, r: float):
    """Random CCW triangle arranged so disc(0, r) meets it per the given case.

    case 1: no vertices inside the disc and no edge crossings (disjoint or
    the triangle swallows the disc); case 2: no vertices inside but edges
    crossing; case 3: one or two vertices inside; case 4: all inside.
    """
    while True:
        if case == 4:
            radii = rng.uniform(0.0, 0.98 * r, 3)
            angles = rng.uniform(0.0, 2.0 * math.pi, 3)
            pts = radii * np.exp(1j * angles)
        elif case == 1 and rng.uniform() < 0.5:
            # big triangle surrounding the disc
            angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, 3))
            if np.diff(np.concatenate((angles, angles[:1] + 2 * math.pi))).max() > math.pi * 0.95:
                continue
            pts = rng.uniform(2.5 * r, 6.0 * r, 3) * np.exp(1j * angles)
        else:
            pts = (rng.uniform(-3 * r, 3 * r, 3) + 1j * rng.uniform(-3 * r, 3 * r, 3))
        tri = _ccw(pts)
        if tri is None:
            continue
        got = classify_triangle_case(r, tri)
        if got == case:
            return tri


def _ccw(pts):
    v = np.asarray(pts, dtype=complex)
    cross = (v[1] - v[0]).real * (v[2] - v[0]).imag - (v[1] - v[0]).imag * (v[2] - v[0]).real
    if abs(cross) < 1e-6:
        return None
    return v if cross > 0 else v[[0, 2, 1]]


def classify_triangle_case(r: float, verts) -> int:
    """Case id (1-4) from vertex membership and edge crossings."""
    vs = np.asarray(verts, dtype=complex)
    inside = np.abs(vs) <= r
    n_in = int(inside.sum())
    if n_in == 3:
        return 4
    if n_in > 0:
        return 3
    crossings = 0
    for i in range(3):
        a, b = vs[i], vs[(i + 1) % 3]
        d = b - a
        t = -np.real(np.conj(d) * a) / abs(d) ** 2
        t = min(1.0, max(0.0, t))
        if abs(a + t * d) < r:
            crossings += 1
    return 2 if crossings else 1
