"""Independent oracles, input generators and one-row calls shared across the test suite.

Every oracle here computes areas or memberships through a different
algorithm than the package (column quadrature, point grids, scipy hulls,
the shoelace formula, the closed-form circular segment, element-by-element
math.cos/sin for the nominal pattern, numpy's complex exp for the
excitation draws), so agreement is evidence rather than tautology.

The package keeps polygons only as padded arrays (arraytol.geometry).  The
one-row calls here run its batched kernels on a single polygon, given and
returned as a 1-D array of its counter-clockwise vertices; direction_region
reads one direction's region from the package's batched curve.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import ConvexHull

from arraytol import AngularGrid, ValidationError, interval_af_curve
from arraytol.geometry import (
    EPS_GEOM,
    _normalize,
    disc_polygon_areas,
    modulus_bounds,
    polygonize_interval_phasors,
    rotated_minkowski_sums,
)
from arraytol.pia import _ring_probabilities


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


def direction_region(scenario, u: float, arc_points: int = 8):
    """(region, modulus_lo, modulus_hi) at one direction: row 0 of a one-sample curve."""
    r = interval_af_curve(scenario, AngularGrid([u]), arc_points)
    return r.vertices[0, : r.n_vertices[0]], float(r.modulus_lo[0]), float(r.modulus_hi[0])


def nominal_af(scenario, u: float) -> complex:
    """Crisp array factor at one direction, summed element by element with math.cos/sin."""
    total = 0.0 + 0.0j
    for n, el in enumerate(scenario.elements):
        psi = 2.0 * math.pi * scenario.spacing * n * u
        total += el.nominal_amplitude * complex(
            math.cos(el.nominal_phase + psi), math.sin(el.nominal_phase + psi)
        )
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


def reference_draw(scenario, uniforms) -> np.ndarray:
    """Excitations of uniforms (..., 2N) in [0, 1) by the textbook mapping:
    lo + width * u onto each amplitude, then phase interval, and
    amp * exp(j * phase) with numpy's complex exp."""
    els = scenario.elements
    lo = np.array([e.amplitude_lo for e in els] + [e.phase_lo for e in els])
    width = np.array([e.amplitude_hi for e in els] + [e.phase_hi for e in els]) - lo
    x = lo + width * np.asarray(uniforms)
    n = len(els)
    return x[..., :n] * np.exp(1j * x[..., n:])


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


def disc_convex_area_slab(r: float, verts, n_columns: int = 4097) -> float:
    """Disc-polygon intersection area: exact y-slices, Simpson in x."""
    vs = np.asarray(verts, dtype=complex)
    if r <= 0.0 or vs.size < 3:
        return 0.0
    x_lo = max(float(vs.real.min()), -r)
    x_hi = min(float(vs.real.max()), r)
    if x_hi <= x_lo:
        return 0.0
    xs = np.linspace(x_lo, x_hi, n_columns)
    lo = np.full(xs.size, -np.inf)
    hi = np.full(xs.size, np.inf)
    feasible = np.ones(xs.size, dtype=bool)
    for i in range(vs.size):
        a = vs[i]
        b = vs[(i + 1) % vs.size]
        dx = b.real - a.real
        dy = b.imag - a.imag
        if dx == 0.0:
            feasible &= -dy * (xs - a.real) >= -1e-12 * abs(dy)
            continue
        y_edge = a.imag + dy * (xs - a.real) / dx
        if dx > 0.0:
            lo = np.maximum(lo, y_edge)
        else:
            hi = np.minimum(hi, y_edge)
    y_circ = np.sqrt(np.maximum(r * r - xs * xs, 0.0))
    width = np.minimum(hi, y_circ) - np.maximum(lo, -y_circ)
    width = np.where(feasible, np.maximum(width, 0.0), 0.0)
    h = xs[1] - xs[0]
    w = np.ones(xs.size)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.sum(w * width) * h / 3.0)


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
