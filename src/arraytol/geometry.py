"""Exact 2-D convex geometry in the complex plane: sector polygons, batched
Minkowski sums, origin-distance bounds and exact disc-region areas.

Polygons are immutable sequences of complex vertices in counter-clockwise
order.  Degenerate polygons (a single point or a segment) are allowed and
flow through every operation.  All discs are centered at the origin, which
is the only case the power-pattern analysis needs.

A batch of regions is one padded array: row i of a (rows, M) complex array
holds its region's n_vertices[i] vertices, then repeats of its vertex 0.
The padding makes zero-length edges, so the farthest vertex needs no
vertex count.  Tests on a vertex's two neighbours take them cyclically
modulo the row's count, and areas sum each row over its own vertices only.
The batched functions size their own row blocks.  The single-polygon
functions are one-row calls of the batched ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .model import check_integer

# Geometric tolerance.  The weld and the ring-area floor scale it by the
# region's size; elsewhere it is absolute, in the natural units of the
# excitation amplitudes (vertex coordinates are O(1)..O(10) in practice).
EPS_GEOM = 1e-9

# Weld scale for collapsing numerically coincident points.
_WELD = 1e-12

_TWO_PI = 2.0 * math.pi

# A batched Minkowski sum processes directions in blocks of about this many
# edges, which bounds its temporary arrays.
_BLOCK_EDGES = 10_000

# Ring areas work on blocks of about this many (region, radius, edge)
# triples, small enough that their temporaries do not raise peak memory.
_BLOCK_TRIPLES = 20_000


@dataclass(frozen=True)
class ConvexPolygon:
    """Convex CCW polygon; 1 vertex = point, 2 vertices = segment."""

    vertices: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.vertices.flags.writeable = False

    def __len__(self) -> int:
        return self.vertices.size

    def __repr__(self) -> str:  # pragma: no cover
        return f"ConvexPolygon(n={self.vertices.size})"


def convex_polygon(points) -> ConvexPolygon:
    """Normalize a CCW vertex sequence into a ConvexPolygon.

    Welds consecutive vertices closer than EPS_GEOM times the farthest
    vertex's modulus, removes collinear ones, and
    rejects inputs that are not convex and counter-clockwise.
    """
    arr = np.array(points, dtype=np.complex128).ravel()  # a copy: convex_rows may return it
    if arr.size == 0:
        raise ValidationError("polygon needs at least one vertex")
    vertices, n_vertices = convex_rows(arr[None])
    return ConvexPolygon(vertices[0, : n_vertices[0]])


def convex_rows(points) -> tuple[np.ndarray, np.ndarray]:
    """Normalize each row of points as convex_polygon normalizes one.

    Returns the rows, as wide as points, in the padded-row format, and their
    vertex counts.  When no vertex is dropped the rows are points itself.
    """
    vs = np.asarray(points, dtype=np.complex128)
    if not np.all(np.isfinite(vs)):
        raise ValidationError("polygon vertices must be finite")
    far = np.abs(vs).max(axis=1, keepdims=True)  # each row's scale
    keep = np.abs(vs - np.roll(vs, 1, axis=1)) > EPS_GEOM * far
    keep[~keep.any(axis=1), 0] = True
    if keep.all():  # nothing welded: compaction would be the identity
        n = np.full(len(vs), vs.shape[1])
    else:
        vs, n = _compact(vs, keep)
    slot = np.arange(vs.shape[1])
    while True:
        e2 = np.roll(vs, -1, axis=1) - vs  # padding makes vertex 0 follow vertex n-1
        e1 = np.roll(e2, 1, axis=1)
        e1[:, 0] = e2[np.arange(len(vs)), n - 1]
        cross = e1.real * e2.imag - e1.imag * e2.real
        live = (slot < n[:, None]) & (n >= 3)[:, None]
        flat = live & (np.abs(cross) <= _WELD * np.abs(e1) * np.abs(e2) + 1e-300)
        if not flat.any():
            break
        line = np.all(flat == live, axis=1) & (n >= 3)
        flat[line] = False
        vs, n = _compact(vs, (slot < n[:, None]) & ~flat)
        if line.any():  # a fully collinear row keeps its two extreme points
            ring = vs[line]
            at = np.arange(len(ring))
            i = np.argmin(ring.real + ring.imag * 1e-9, axis=1)
            j = np.argmax(np.abs(ring - ring[at, i][:, None]), axis=1)
            vs[line] = np.where(slot == 1, ring[at, j][:, None], ring[at, i][:, None])
            n[line] = np.where(j != i, 2, 1)
    if np.any(live & (cross < -EPS_GEOM * np.maximum(far * far, np.abs(e1) * np.abs(e2)))):
        raise ValidationError("vertices are not a counter-clockwise convex polygon")
    return vs, n


def _compact(vs: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's kept vertices in order, padded with repeats of the new vertex 0."""
    n = keep.sum(axis=1)
    vs = np.take_along_axis(vs, np.argsort(~keep, axis=1, kind="stable"), axis=1)
    return np.where(np.arange(vs.shape[1]) < n[:, None], vs, vs[:, :1]), n


def polygonize_interval_phasor(
    amp_lo: float,
    amp_hi: float,
    phase_lo: float,
    phase_hi: float,
    arc_points: int = 8,
) -> ConvexPolygon:
    """Convex polygon covering the annular sector {a*e^(jb)}.

    The outer arc is replaced by circumscribed tangent chords (arc_points
    vertices pushed to radius amp_hi/cos(step/2)), so the polygon is a
    guaranteed superset of the sector; the inner arc is covered by its
    chord.  Over-coverage shrinks as O(1/arc_points^2).
    """
    vertices, n_vertices = polygonize_interval_phasors(
        [(amp_lo, amp_hi, phase_lo, phase_hi)], arc_points
    )
    return ConvexPolygon(vertices[0, : n_vertices[0]])


def polygonize_interval_phasors(sectors, arc_points: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """polygonize_interval_phasor of each (amp_lo, amp_hi, phase_lo, phase_hi) in sectors.

    Returns the polygons in the padded-row format, normalized by one
    convex_rows call.  A zero-width sector's row is its two ray points,
    padded with repeats of the outer one, which the weld drops.
    """
    sectors = list(sectors)
    for amp_lo, amp_hi, phase_lo, phase_hi in sectors:
        if not (0.0 <= amp_lo <= amp_hi):
            raise ValidationError(
                f"amplitude interval [{amp_lo}, {amp_hi}] must satisfy 0 <= lo <= hi"
            )
        width = phase_hi - phase_lo
        if width < 0.0:
            raise ValidationError(f"phase interval [{phase_lo}, {phase_hi}] is reversed")
        if width >= math.pi:
            raise ValidationError(f"phase interval width {width} rad must be below pi")
    check_integer("arc_points", arc_points, 2)

    points = np.empty((len(sectors), arc_points + 4), dtype=np.complex128)
    for row, (amp_lo, amp_hi, phase_lo, phase_hi) in zip(points, sectors):
        if phase_hi == phase_lo:
            rot = _cis(phase_lo)
            row[0], row[1:] = amp_lo * rot, amp_hi * rot
            continue
        step = (phase_hi - phase_lo) / arc_points
        bulge = amp_hi / math.cos(0.5 * step)
        row[:] = [
            amp_lo * _cis(phase_lo),
            amp_hi * _cis(phase_lo),
            *(bulge * _cis(phase_lo + (i + 0.5) * step) for i in range(arc_points)),
            amp_hi * _cis(phase_hi),
            amp_lo * _cis(phase_hi),
        ]
    return convex_rows(points)


def _cis(angle: float) -> complex:
    return complex(math.cos(angle), math.sin(angle))


def _row_blocks(
    n_rows: int, row_size: int, size: int = _BLOCK_EDGES, start: int = 0
) -> list[slice]:
    """Slices of consecutive rows, from start up to n_rows, holding about size elements each."""
    step = max(1, size // max(1, row_size))
    return [slice(first, min(first + step, n_rows)) for first in range(start, n_rows, step)]


def rotated_minkowski_sums(polys, angles, mirrored: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Minkowski sums of rigidly rotated convex polygons, one per row of angles.

    Row i sums polys[n] rotated about the origin by angles[i, n] radians.  The
    row's edge vectors sorted by direction (angles folded into [0, 2*pi),
    ties kept in operand order) trace the sum's shape, all rows of a block
    in one argsort and one cumsum.  A trace starts where its first edge in
    that order starts: at the sum, over the operands, of the vertex where
    each operand's own first edge starts (its edge of least folded
    direction, the lowest index among ties).  The traces are normalized by
    convex_rows.  Returns (vertices, n_vertices) in the padded-row format;
    vertices is a column slice of one array as wide as the operands' vertex
    count.

    The first mirrored rows are not summed but filled by _mirror_rows from
    the last ones, which is their sum when angles[i] == -angles[-1 - i]
    and every polygon is its own conjugate.
    """
    polys = list(polys)
    if not polys:
        raise ValidationError("a Minkowski sum needs at least one polygon")
    angles = np.asarray(angles, dtype=np.float64).reshape(-1, len(polys))
    sizes = np.array([len(p) for p in polys])
    # pad with repeats of vertex 0; a point keeps one zero-length edge, and the
    # weld drops the vertex it repeats
    width = int(sizes.max())
    verts = np.array(
        [np.concatenate((p.vertices, np.repeat(p.vertices[:1], width - len(p)))) for p in polys]
    )
    real = np.arange(width) < sizes[:, None]
    n_edges = int(real.sum())
    vertices = np.empty((angles.shape[0], n_edges), dtype=np.complex128)
    n_vertices = np.empty(angles.shape[0], dtype=np.int64)
    for block in _row_blocks(angles.shape[0], n_edges, start=mirrored):
        vertices[block], n_vertices[block] = convex_rows(_trace(verts, angles[block], real))
    vertices = vertices[:, : n_vertices[mirrored:].max(initial=1)]
    _mirror_rows(vertices, n_vertices, mirrored)
    return vertices, n_vertices


def _mirror_rows(vertices: np.ndarray, n_vertices: np.ndarray, mirrored: int) -> None:
    """Fill padded rows [0, mirrored) in place with the conjugates of the last rows.

    Row i becomes the mirror image of row -1 - i in the real axis: its
    vertex 0 is the conjugate of that row's vertex 0 and the rest follow
    in reverse order, so the row stays counter-clockwise and is padded
    with repeats of its vertex 0.
    """
    slot = np.arange(vertices.shape[1])
    last = len(vertices) - 1
    for block in _row_blocks(mirrored, vertices.shape[1]):
        source = last - np.arange(block.start, block.stop)
        n = n_vertices[source][:, None]
        order = np.where(slot < n, (n - slot) % n, 0)
        vertices[block] = np.take_along_axis(vertices[source], order, axis=1).conj()
        n_vertices[block] = n[:, 0]


def _trace(verts: np.ndarray, angles: np.ndarray, real: np.ndarray) -> np.ndarray:
    """A block's edge traces (its own function, so its temporaries die before convex_rows)."""
    rotated = verts * np.exp(1j * angles[:, :, None])  # (rows, N, width)
    edges = np.roll(rotated, -1, axis=2) - rotated
    heading = np.angle(edges)
    heading[heading < 0.0] += _TWO_PI
    heading[heading >= _TWO_PI] = 0.0  # fold 2*pi onto 0
    heading[:, ~real] = np.inf
    first = np.argmin(heading, axis=2)  # each operand's first edge in the stable sort
    anchor = np.take_along_axis(rotated, first[..., None], axis=2)[..., 0].sum(axis=1)
    order = np.argsort(heading[:, real], axis=1, kind="stable")
    steps = np.take_along_axis(edges[:, real], order, axis=1)
    trace = np.zeros_like(steps)
    np.cumsum(steps[:, :-1], axis=1, out=trace[:, 1:])
    trace += anchor[:, None]
    return trace


def minkowski_sum_many(polys) -> ConvexPolygon:
    """Minkowski sum of convex polygons via angular merge of edge vectors."""
    polys = list(polys)
    vertices, n_vertices = rotated_minkowski_sums(polys, np.zeros(len(polys)))
    return ConvexPolygon(vertices[0, : n_vertices[0]])


def contains_point(poly: ConvexPolygon, z: complex) -> bool:
    """Closed membership test with EPS_GEOM slack."""
    return bool(modulus_bounds((poly.vertices - z)[None], [len(poly)])[0][0] <= EPS_GEOM)


def modulus_bounds(vertices, n_vertices) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) distance from the origin to each padded region (as a filled set)."""
    vertices = np.asarray(vertices, dtype=np.complex128)
    n_vertices = np.asarray(n_vertices)
    lo = np.empty(len(vertices))
    hi = np.empty(len(vertices))
    slot = np.arange(vertices.shape[1])
    for block in _row_blocks(len(vertices), vertices.shape[1]):
        vs, n = vertices[block], n_vertices[block]
        e = np.roll(vs, -1, axis=1) - vs
        hi[block] = far = np.abs(vs).max(axis=1)
        # origin left of every edge, with a slack of EPS_GEOM relative to the
        # largest cross product the edge can make, so it does not depend on scale
        cross = e.imag * vs.real - e.real * vs.imag
        inside = (n >= 3) & np.all(cross >= np.abs(e) * (-EPS_GEOM * far)[:, None], axis=1)
        dd = e.real**2 + e.imag**2
        dd = np.where(dd == 0.0, 1.0, dd)
        t = np.clip(-(vs.real * e.real + vs.imag * e.imag) / dd, 0.0, 1.0)
        # padded slots are no edges, and a segment's two directed edges
        # coincide, so it takes its first
        edge = slot < np.where(n == 2, 1, n)[:, None]
        near = np.where(edge, np.abs(vs + t * e), np.inf).min(axis=1)
        lo[block] = np.where(inside, 0.0, near)
    return lo, hi


def distance_bounds_to_origin(poly: ConvexPolygon) -> tuple[float, float]:
    """(min, max) distance from the origin to the polygon (as a filled set)."""
    lo, hi = modulus_bounds(poly.vertices[None], [len(poly)])
    return float(lo[0]), float(hi[0])


def polygon_area(points) -> float:
    """Absolute shoelace area of a vertex ring; below 3 points the area is 0."""
    if isinstance(points, ConvexPolygon):
        arr = points.vertices
    else:
        arr = np.asarray(points, dtype=np.complex128).ravel()
    if arr.size < 3:
        return 0.0
    nxt = np.roll(arr, -1)
    return 0.5 * abs(float(np.sum(arr.real * nxt.imag - nxt.real * arr.imag)))


def disc_polygon_areas(radii, vertices, n_vertices) -> np.ndarray:
    """Area of disc(0, r) intersected with each region, for every r in its row of radii.

    radii is (rows, R), and vertices (rows, M) with n_vertices are regions in
    the padded-row format; the result is (rows, R), exactly 0.0 on a region
    with fewer than three vertices.  Fans each region from the disc center:
    a row sums, over the CCW edges (a, b), the signed area of disc(0, r)
    intersected with triangle(0, a, b).  Each edge is classed against each
    radius by quantities taken once per edge:

    - inside, when max(|a|^2, |b|^2) <= r^2: it adds cross(a, b) / 2;
    - outside, when the squared distance from the origin to the edge is
      >= r^2 (a tangent edge is outside): it adds r^2 * angle(a, b) / 2;
    - crossing, otherwise.  With d = b - a and t1 <= t2 the edge-circle
      roots clipped to [0, 1], the chord between p1 = a + t1*d and
      p2 = a + t2*d adds cross(p1, p2) / 2 and the arcs outside the disc
      add r^2 * angle / 2 (angles a -> p1 and p2 -> b).

    Both closed forms are the crossing formula's limits at the class
    boundaries, so a class decided wrongly in the last bit costs no more
    than round-off.  Only the crossing triples are gathered for the roots.
    Regions are summed in groups of equal vertex count, each cut to its own
    width, so padding never enters a sum and a region's areas do not depend
    on the array it comes in.
    """
    radii = np.asarray(radii, dtype=np.float64)
    vertices = np.asarray(vertices, dtype=np.complex128)
    n_vertices = np.asarray(n_vertices)
    areas = np.zeros(radii.shape)
    for n in sorted(set(n_vertices[n_vertices >= 3].tolist())):  # np.unique imports numpy.ma
        rows = np.flatnonzero(n_vertices == n)
        for block in _row_blocks(rows.size, radii.shape[1] * n, _BLOCK_TRIPLES):
            idx = rows[block]
            areas[idx] = _fan_areas(radii[idx] ** 2, vertices[idx, :n])
    return areas


def _fan_areas(r2: np.ndarray, a: np.ndarray) -> np.ndarray:
    """disc_polygon_areas of unpadded regions a, (rows, n), at squared radii r2, (rows, R)."""
    b = np.concatenate((a[:, 1:], a[:, :1]), axis=1)
    d = b - a
    ab = a.conj() * b
    aa = a.real * a.real + a.imag * a.imag
    dd = d.real * d.real + d.imag * d.imag
    dd = np.where(dd > 0.0, dd, 1.0)  # a zero-length edge puts both roots on a
    ad = a.real * d.real + a.imag * d.imag
    foot = a + np.clip(-ad / dd, 0.0, 1.0) * d  # the edge's point nearest the origin
    inside = np.maximum(aa, b.real * b.real + b.imag * b.imag)[:, None, :] <= r2[:, :, None]
    outside = ~inside & ((foot.real**2 + foot.imag**2)[:, None, :] >= r2[:, :, None])
    total = (inside * ab.imag[:, None, :]).sum(axis=2)
    total += r2 * (outside * np.angle(ab)[:, None, :]).sum(axis=2)
    i, k, e = np.nonzero(~(inside | outside))
    ai, di, bi, q = a[i, e], d[i, e], b[i, e], r2[i, k]
    qa, qb = dd[i, e], ad[i, e]
    sq = np.sqrt(np.maximum(qb * qb - qa * (aa[i, e] - q), 0.0))
    p1 = ai + np.clip((-qb - sq) / qa, 0.0, 1.0) * di
    p2 = ai + np.clip((-qb + sq) / qa, 0.0, 1.0) * di
    piece = (p1.conj() * p2).imag + q * (np.angle(ai.conj() * p1) + np.angle(p2.conj() * bi))
    total += np.bincount(i * r2.shape[1] + k, piece, total.size).reshape(total.shape)
    return 0.5 * total


def disc_polygon_intersection_area(r: float, poly: ConvexPolygon) -> float:
    """Exact area of disc(0, r) intersected with a convex polygon.

    Exactly 0.0 when the polygon has no area or lies at distance r or more
    from the origin (tangency included).
    """
    if r < 0.0:
        raise ValidationError("radius must be non-negative")
    if r == 0.0 or len(poly) < 3 or distance_bounds_to_origin(poly)[0] >= r:
        return 0.0
    return max(float(disc_polygon_areas([[r]], poly.vertices[None], [len(poly)])[0, 0]), 0.0)
