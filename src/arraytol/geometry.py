"""Exact 2-D convex geometry in the complex plane: sector polygons, batched
Minkowski sums, origin-distance bounds and exact disc-region areas.

Every batch of convex polygons is one padded array: row i of a (rows, M)
complex array holds its polygon's n_vertices[i] vertices in
counter-clockwise order, then repeats of its vertex 0.  Degenerate
polygons (a single point or a segment) are allowed and flow through every
operation.  The padding makes zero-length edges, so the farthest vertex
needs no vertex count.  Tests on a vertex's two neighbours take them
cyclically modulo the row's count, and areas sum each row over its own
vertices only.  The functions size their own row blocks.  All discs are
centered at the origin, which is the only case the power-pattern analysis
needs.  Sector polygons are built exactly, dropping only exact repeats;
the one normalization, which welds near-coincident vertices and reports
how far that moved each row, runs on the Minkowski sums.
"""

from __future__ import annotations

import math

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
# operand vertices, rows * N * width, which bounds its (rows, N, width) traces.
_BLOCK_EDGES = 10_000
# Its bytes per operand vertex at _normalize's peak: trace, steps, welded steps, steps in
# and out (complex128); lengths in, out and welded, next long step, cross products, their
# two bounds and a product (float64 or int64)
_EDGE_BYTES = 5 * 16 + 8 * 8

# Ring areas work on blocks of about this many (region, radius, vertex)
# triples, small enough that their temporaries do not raise peak memory
# and stay in cache.
_BLOCK_TRIPLES = 80_000
# _vertex_pass' bytes per triple: a float64 radius and 8 bool masks; per vertex, counted as
# _VERTEX_RADII radii: the block's gathered vertices, prefix sums, edge ends, a* b, a candidate
# edge's start and direction (complex128); |a|**2, min(|a|**2, |b|**2), a candidate's 3 indices,
# squared length, foot parameter and distance (8 bytes each), as if every edge were a candidate
_TRIPLE_BYTES, _VERTEX_RADII = 16, 10


def _normalize(vs: np.ndarray, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize each row of vs, a CCW vertex ring, into a convex polygon.

    steps[:, k] is the step from vertex k to k+1.  Welds short steps,
    merges same-direction parallel steps and checks convexity, in one pass
    over the steps.  A step is short when it is no longer than EPS_GEOM
    times the row's farthest vertex's modulus, and is welded into the next
    step that is not.  A vertex is dropped when the step into it is short,
    or when its welded steps in and out are parallel and point the same
    way.  So a segment keeps its two ends, and a row that would drop every
    vertex keeps its vertex 0.  Returns the rows, as wide as vs, in the
    padded-row format (vs itself when no vertex is dropped), their vertex
    counts, and each row's total length of the steps it welded: no vertex
    of vs lies farther than that from its row's polygon.  Rejects rows
    that are not convex and counter-clockwise.
    """
    far = np.abs(vs).max(axis=1, keepdims=True)  # NaN or inf if any vertex of its row is
    if not np.all(np.isfinite(far)):
        raise ValidationError("polygon vertices must be finite")
    keep, welded = _kept(steps, far)
    if keep.all():  # nothing dropped: compaction would be the identity
        return vs, np.full(len(vs), vs.shape[1]), welded
    return *_compact(vs, keep), welded


def _kept(steps: np.ndarray, far: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The vertices that rows with these steps and scales far keep, and each row's welded length.

    A step is long when it is longer than EPS_GEOM * far, and each step
    that is not long is welded into the next long step, past the row's end
    into its first.  The steps between the vertices left are then the
    welded long steps.  A vertex is dropped when its step in is not long,
    or when its welded step in and its next welded step out are parallel
    and point the same way.  A kept vertex of a row that keeps at least
    three must turn left from the one to the other.  The welded length is
    the sum of the lengths of the steps that are not long.  Its own
    function, so its temporaries die before the compaction.
    """
    length = np.abs(steps)
    long = length > EPS_GEOM * far
    welded, out, l_out = steps, steps, length
    moved = np.zeros(len(steps))
    if not long.all():
        moved = np.where(long, 0.0, length).sum(axis=1)
        width = steps.shape[1]
        at = np.where(long, np.arange(width), np.argmax(long, axis=1)[:, None] + width)
        at = np.minimum.accumulate(at[:, ::-1], axis=1)[:, ::-1] % width  # the next long step
        at += np.arange(0, at.size, width)[:, None]  # flat indices
        welded = np.where(long, steps, 0.0)
        np.add.at(welded.reshape(-1), at[~long], steps[~long])
        length = np.abs(welded)
        out, l_out = welded.reshape(-1)[at], length.reshape(-1)[at]
    into, l_in = _previous(welded), _previous(length)
    cross = into.real * out.imag - into.imag * out.real
    same = (np.abs(cross) <= _WELD * l_in * l_out) & (
        into.real * out.real + into.imag * out.imag > 0.0
    )
    keep = _previous(long) & ~same
    polygon = keep & (keep.sum(axis=1) >= 3)[:, None]
    if np.any(polygon & (cross < -EPS_GEOM * np.maximum(far * far, l_in * l_out))):
        raise ValidationError("vertices are not a counter-clockwise convex polygon")
    return keep, moved


def _compact(vs: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's kept vertices in order, padded with repeats of the new vertex 0.

    A row that keeps none keeps its vertex 0; keep is updated in place.
    """
    keep[~keep.any(axis=1), 0] = True
    n = keep.sum(axis=1)
    order = np.argsort(~keep, axis=1, kind="stable")
    vs = vs.reshape(-1)[order + np.arange(0, order.size, order.shape[1])[:, None]]
    return np.where(np.arange(vs.shape[1]) < n[:, None], vs, vs[:, :1]), n


def polygonize_interval_phasors(sectors, arc_points: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Convex polygons covering each annular sector {a*e^(jb)} in sectors.

    Each sector is given as (amp_lo, amp_hi, phase_lo, phase_hi).  The
    outer arc is replaced by circumscribed tangent chords (arc_points
    vertices pushed to radius amp_hi/cos(step/2)), so the polygon is a
    guaranteed superset of the sector; the inner arc is covered by its
    chord.  Over-coverage shrinks as O(1/arc_points^2).  Returns the
    polygons in the padded-row format, each row its arc_points + 4 points
    less every exact repeat of the vertex before it (cyclically), and a row
    of equal points its vertex 0.  So a zero-width sector is a radial
    segment, outer end first, and a sector with amp_lo == amp_hi or
    amp_lo == 0 loses its repeated corners.  Nothing is welded: the rows
    are convex by construction, and near-coincident vertices are left to
    the Minkowski sum's normalization, which widens the bounds by what it
    welds.
    """
    check_integer("arc_points", arc_points, 2)
    sectors = list(sectors)
    points = np.empty((len(sectors), arc_points + 4), dtype=np.complex128)
    for row, (amp_lo, amp_hi, phase_lo, phase_hi) in zip(points, sectors):
        if not (0.0 <= amp_lo <= amp_hi):
            raise ValidationError(
                f"amplitude interval [{amp_lo}, {amp_hi}] must satisfy 0 <= lo <= hi"
            )
        width = phase_hi - phase_lo
        if width < 0.0:
            raise ValidationError(f"phase interval [{phase_lo}, {phase_hi}] is reversed")
        if width >= math.pi:
            raise ValidationError(f"phase interval width {width} rad must be below pi")
        step = width / arc_points
        bulge = amp_hi / math.cos(0.5 * step)
        row[:] = [
            amp_lo * _cis(phase_lo),
            amp_hi * _cis(phase_lo),
            *(bulge * _cis(phase_lo + (i + 0.5) * step) for i in range(arc_points)),
            amp_hi * _cis(phase_hi),
            amp_lo * _cis(phase_hi),
        ]
    return _compact(points, points != _previous(points))


def _cis(angle: float) -> complex:
    return complex(math.cos(angle), math.sin(angle))


def _previous(x: np.ndarray) -> np.ndarray:
    """x[:, k - 1] at each column k of a 2-D x, cyclically."""
    out = np.empty_like(x)
    out.reshape(-1)[1:] = x.reshape(-1)[:-1]  # each row's column 0 is set next
    out[:, 0] = x[:, -1]
    return out


def _edges(vs: np.ndarray) -> np.ndarray:
    """vs[..., k + 1] - vs[..., k] along the last axis, cyclically: the edges of vertex rings."""
    edges = np.empty_like(vs)
    flat = vs.reshape(-1)  # differences across rings land on their last edges, set next
    np.subtract(flat[1:], flat[:-1], out=edges.reshape(-1)[:-1])
    np.subtract(vs[..., 0], vs[..., -1], out=edges[..., -1])
    return edges


def _row_blocks(n_rows: int, row_size: int, size: int = _BLOCK_EDGES) -> list[slice]:
    """Slices of consecutive rows, up to n_rows, holding about size elements each."""
    step = max(1, size // max(1, row_size))
    return [slice(first, min(first + step, n_rows)) for first in range(0, n_rows, step)]


def kernel_bytes(width: int, radii: int) -> int:
    """The kernels' most temporaries on rows of width vertices and radii ring radii: a block,
    or one row where it is wider, of the Minkowski sum's and the ring areas' (per vertex)."""
    return max(_EDGE_BYTES * max(_BLOCK_EDGES, width),
               _TRIPLE_BYTES * max(_BLOCK_TRIPLES, (radii + _VERTEX_RADII) * width))


def pad_rows(vertices: np.ndarray, width: int) -> np.ndarray:
    """Padded regions widened to width columns by more repeats of each row's vertex 0.

    Regions already width wide come back as they are, not copied.
    """
    if vertices.shape[1] == width:
        return vertices
    out = np.empty((len(vertices), width), dtype=vertices.dtype)
    out[:, : vertices.shape[1]] = vertices
    out[:, vertices.shape[1] :] = vertices[:, :1]
    return out


def rotated_minkowski_sums(
    vertices, n_vertices, angles
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minkowski sums of rigidly rotated convex polygons, one per row of angles.

    vertices and n_vertices are the operands in the padded-row format.  Row
    i sums operand n rotated about the origin by angles[i, n] radians.  The
    row's edge vectors sorted by direction (angles folded into [0, 2*pi),
    ties kept in operand order) trace the sum's shape, all rows of a block
    in one argsort and one cumsum.  A point keeps one zero-length edge,
    which the weld drops.  A trace starts where its first edge in that
    order starts: at the sum, over the operands, of the vertex where each
    operand's own first edge starts (its edge of least folded direction,
    the lowest index among ties, moved back over the cyclic predecessors
    that rounding sorted after it, as _trace says).  Each trace is
    normalized by _normalize applied to those sorted edge vectors.  A sum of
    parallel segments is its two ends, vertex 0 where its trace starts.
    Returns (vertices, n_vertices, welded): the sums in the padded-row
    format, vertices a column slice of one array as wide as the operands'
    vertex count, and each row's total length of the steps its
    normalization welded.  No point of a sum lies farther than that from
    its row's polygon, so bounds taken from the polygon must be widened by
    it.  Non-finite operands or angles raise ValidationError before any
    arithmetic; _normalize still checks each sum, which finite operands
    can overflow.
    """
    n_vertices = np.asarray(n_vertices)
    if n_vertices.size == 0:
        raise ValidationError("a Minkowski sum needs at least one polygon")
    width = int(n_vertices.max())
    verts = np.asarray(vertices, dtype=np.complex128)[:, :width]
    angles = np.asarray(angles, dtype=np.float64).reshape(-1, len(verts))
    if not (np.isfinite(verts).all() and np.isfinite(angles).all()):
        raise ValidationError("polygon vertices and rotation angles must be finite")
    n_edges = int(n_vertices.sum())
    sums = np.empty((angles.shape[0], n_edges), dtype=np.complex128)
    counts = np.empty(angles.shape[0], dtype=np.int64)
    welded = np.empty(angles.shape[0])
    for block in _row_blocks(angles.shape[0], verts.size):
        trace = _trace(verts, angles[block], n_vertices)
        sums[block], counts[block], welded[block] = _normalize(*trace)
    return sums[:, : counts.max(initial=1)], counts, welded


def _trace(verts: np.ndarray, angles: np.ndarray, n: np.ndarray) -> tuple:
    """A block's edge traces and their sorted steps, n the operands' vertex counts.

    Each operand's first edge is its nonzero edge of least heading (a
    zero-length edge, which rounding can make, heads 0 wherever it lies),
    moved back to its cyclic predecessor for as long as that heads less
    than pi/2 after the least heading.  On a convex polygon the true first
    edge's predecessor heads more than pi after it, so only edges that
    rounding sorted after their successor move it; anchored at the least
    heading, the trace would be shifted by their length.  A point's one
    edge is its own predecessor and stays.  Padded slots head +inf, so one
    stable argsort of each whole row puts its real edges first, in their
    own order.  Its own function, so its (rows, N, width) temporaries die
    before _normalize.
    """
    rows, width = len(angles), verts.shape[1]
    rotated = verts * np.exp(1j * angles[:, :, None])  # (rows, N, width)
    edges = _edges(rotated)
    heading = np.angle(edges)
    np.add(heading, _TWO_PI, out=heading, where=heading < 0.0)
    heading[~(heading < _TWO_PI)] = 0.0  # fold 2*pi onto 0, and NaN: padding sorts after it
    heading[:, np.arange(width) >= n[:, None]] = np.inf
    flat = heading.reshape(-1)
    base = np.arange(0, heading.size, width).reshape(rows, -1)  # each operand's slot 0
    # each operand's least-heading nonzero edge, (rows, N); a complex edge is true where nonzero
    first = np.argmin(np.where(edges, heading, np.inf), axis=2)
    limit = flat[base + first] + 0.5 * math.pi
    for _ in range(width - 1):
        before = (first - 1) % n
        back = (n > 1) & (flat[base + before] < limit)
        if not back.any():
            break
        first = np.where(back, before, first)
    anchor = rotated.reshape(-1)[base + first].sum(axis=1)
    order = np.argsort(heading.reshape(rows, -1), axis=1, kind="stable")[:, : n.sum()]
    steps = edges.reshape(-1)[order + base[:, :1]]
    trace = np.zeros_like(steps)
    np.cumsum(steps[:, :-1], axis=1, out=trace[:, 1:])
    trace += anchor[:, None]
    return trace, steps


def modulus_bounds(vertices, n_vertices) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) distance from the origin to each padded region (as a filled set).

    Only the regions that do not contain the origin search their edges for the nearest point.
    """
    vertices = np.asarray(vertices, dtype=np.complex128)
    n_vertices = np.asarray(n_vertices)
    lo = np.zeros(len(vertices))  # regions that contain the origin keep 0
    hi = np.empty(len(vertices))
    slot = np.arange(vertices.shape[1])
    for block in _row_blocks(len(vertices), vertices.shape[1]):
        vs, n = vertices[block], n_vertices[block]
        e = _edges(vs)
        hi[block] = far = np.abs(vs).max(axis=1)
        # origin left of every edge, with a slack of EPS_GEOM relative to the
        # largest cross product the edge can make, so it does not depend on scale
        cross = e.imag * vs.real - e.real * vs.imag
        inside = (n >= 3) & np.all(cross >= np.abs(e) * (-EPS_GEOM * far)[:, None], axis=1)
        out = np.flatnonzero(~inside)  # the other regions' nearest points, over their edges
        vs, e, n = vs[out], e[out], n[out]
        dd = e.real**2 + e.imag**2
        dd = np.where(dd == 0.0, 1.0, dd)
        t = np.clip(-(vs.real * e.real + vs.imag * e.imag) / dd, 0.0, 1.0)
        # padded slots are no edges, and a segment's two directed edges
        # coincide, so it takes its first
        edge = slot < np.where(n == 2, 1, n)[:, None]
        lo[block.start + out] = np.where(edge, np.abs(vs + t * e), np.inf).min(axis=1)
    return lo, hi


def _region_blocks(vertices: np.ndarray, n_vertices: np.ndarray, per_vertex: int, size: int):
    """(rows, unpadded vertices) of the padded regions with at least three vertices.

    Regions come in groups of equal vertex count, each cut to its own
    width, so padding never enters a sum and a region's results do not
    depend on the array it comes in; each group in blocks of rows holding
    about size elements, per_vertex of them per vertex.  Each block's
    vertices are a gathered copy, 16 bytes a vertex.
    """
    for n in sorted(set(n_vertices[n_vertices >= 3].tolist())):  # np.unique imports numpy.ma
        group = np.flatnonzero(n_vertices == n)
        for block in _row_blocks(group.size, per_vertex * n, size):
            rows = group[block]
            yield rows, vertices[rows, :n]


def _fan_cross(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """cross(a - a0, b - a0) for the edges (a, b) of unpadded regions a, (rows, n), into out.

    a0 is the region's vertex 0, so the terms fan the region from a
    boundary point: on a convex CCW region none is negative, and they sum
    to twice its area with an error relative to that area, however far the
    region lies from the origin.
    """
    ac = a - a[:, :1]
    out[:, :-1] = (ac[:, :-1].conj() * ac[:, 1:]).imag
    out[:, -1] = 0.0  # the edge back to vertex 0
    return out


def disc_polygon_areas(radii, vertices, n_vertices) -> np.ndarray:
    """Area of disc(0, r) intersected with each region, for every r in its row of radii.

    radii is (rows, R), and vertices (rows, M) with n_vertices are regions in
    the padded-row format; the result is (rows, R), exactly 0.0 on a region
    with fewer than three vertices.  Fans each region from the disc center:
    a row sums, over the CCW edges (a, b), the signed area of disc(0, r)
    intersected with triangle(0, a, b).  That is cross(a, b) / 2 for an
    edge inside the disc, r**2 * angle(a, b) / 2 for an edge outside it,
    and for an edge the circle cuts, with p1 and p2 the ends of its chord
    (its edge-circle roots clipped to the edge), cross(p1, p2) / 2 plus
    r**2 / 2 times the angles a -> p1 and p2 -> b.

    Each (region, radius) costs one compare of |a|**2 with r**2 per vertex
    (a vertex with |a|**2 == r**2 is inside); the rest scales with the
    edges the circle cuts.  The circle cuts an edge whose ends lie on
    either side of it, and an edge with both ends outside whose point
    nearest the origin lies strictly inside (a tangent edge is outside).
    Between two cut edges the boundary runs with every vertex inside or
    every vertex outside: inside exactly when the cut edge before it ends
    inside.  An inside run from vertex s to vertex t adds its _fan_cross
    terms, a difference of prefix sums, plus cross(a0, a_t - a_s); an
    outside run adds r**2 times its edges' angles, likewise.  A circle that
    cuts no edge encloses every vertex, and the area is half the sum of the
    region's _fan_cross terms, or none: then it is pi * r**2 if the region
    winds around the origin and 0 if not.  So a radius within every edge's
    distance from the origin and one beyond every vertex take these closed
    forms.  The crossing formula's limits at the class boundaries are the
    run terms, so a class decided wrongly in the last bit costs no more
    than round-off.  The per-vertex work runs in blocks of about
    _BLOCK_TRIPLES (region, radius, vertex) triples, _VERTEX_RADII more
    radii counted for the per-vertex arrays; the cut edges are then taken
    all at once.
    """
    r2 = np.asarray(radii, dtype=np.float64) ** 2
    vertices = np.asarray(vertices, dtype=np.complex128)
    n_vertices = np.asarray(n_vertices)
    per_row, width = r2.shape[1], vertices.shape[1]
    cut, before, after = [], [], []
    ring = np.zeros(len(vertices), dtype=np.complex128)  # each region's prefix sums' total
    for rows, a in _region_blocks(vertices, n_vertices, per_row + _VERTEX_RADII, _BLOCK_TRIPLES):
        ring[rows], (row, k, e), sums = _vertex_pass(a, r2[rows])
        cut.append((rows[row] * per_row + k) * width + e)
        before.append(sums[0])
        after.append(sums[1])
    if not cut:  # no region has an area
        return np.zeros(r2.shape)
    cut, before, after = np.concatenate(cut), np.concatenate(before), np.concatenate(after)
    return 0.5 * _crossed_areas(r2, vertices, n_vertices, cut, before, after, ring)


def _vertex_pass(a: np.ndarray, r2: np.ndarray) -> tuple:
    """disc_polygon_areas' per-vertex work on unpadded regions a, (rows, n), at squared radii r2.

    Returns the total of each region's prefix sums of its _fan_cross
    terms plus 1j times its edges' angles; the edges each circle cuts, as
    (region, radius, edge) indices in that order; and those prefix sums
    before and after each.  Its own function, so its temporaries die
    before the next block's.
    """
    n, per_row = a.shape[1], r2.shape[1]
    terms = np.empty(a.shape, dtype=np.complex128)
    _fan_cross(a, terms.real)
    b = np.concatenate((a[:, 1:], a[:, :1]), axis=1)  # each edge's end
    ab = a.conj() * b
    np.arctan2(ab.imag, ab.real, out=terms.imag)
    np.cumsum(terms, axis=1, out=terms)  # the prefix sums through each edge
    aa = _abs2(a)
    inside = aa[:, None, :] <= r2[:, :, None]  # each vertex's class at each radius
    cut = np.empty_like(inside)
    np.not_equal(inside[..., :-1], inside[..., 1:], out=cut[..., :-1])
    np.not_equal(inside[..., -1], inside[..., 0], out=cut[..., -1])
    # a circle also cuts an edge with both ends outside when the foot of
    # the origin's perpendicular lies inside; the foot lies strictly
    # between the ends only where a . b < min(|a|^2, |b|^2)
    near = np.minimum(aa, _abs2(b))
    drow, de = np.divmod(np.flatnonzero(ab.real < near), n)
    start, d = a[drow, de], b[drow, de] - a[drow, de]
    dd = _abs2(d)
    t = -(start.real * d.real + start.imag * d.imag) / np.where(dd > 0.0, dd, 1.0)
    q = r2[drow]
    foot = _abs2(start + np.clip(t, 0.0, 1.0) * d)[:, None]
    cut[drow, :, de] |= (foot < q) & (q < near[drow, de][:, None])
    flat, e = np.divmod(np.flatnonzero(cut), n)
    row = flat // per_row
    sums = np.where(e > 0, terms[row, e - 1], 0.0), terms[row, e]
    return terms[:, -1], (row, flat % per_row, e), sums


def _crossed_areas(r2, vertices, n_vertices, cut, before, after, ring):
    """Twice disc_polygon_areas, from what its per-vertex passes gathered.

    cut holds the flat (region, radius, edge) indices into (rows, R, width)
    of the edges the circles cut, those of each (region, radius) together
    and in edge order; before and after the prefix sums of their regions
    before and after them, and ring each region's total of them as
    _vertex_pass returns it.
    """
    per_row, width = r2.shape[1], vertices.shape[1]
    g, e = np.divmod(cut, width)  # g: flat (region, radius)
    i, q = g // per_row, r2.ravel()[g]
    a, b = vertices[i, e], vertices[i, (e + 1) % n_vertices[i]]
    # the run from each cut edge to the next one of its (region, radius),
    # around past the region's last vertex after the last
    first = np.ones(g.size, dtype=bool)
    first[1:] = g[1:] != g[:-1]
    last = np.roll(first, -1)
    nxt = np.arange(1, g.size + 1)
    nxt[last] = np.flatnonzero(first)
    run = before[nxt] - after + ring[i] * last
    span, a0 = a[nxt] - b, vertices[i, 0]
    runs = np.where(
        _abs2(b) <= q,  # the run after an edge that ends inside is inside
        run.real + (a0.real * span.imag - a0.imag * span.real),
        q * run.imag,
    )
    areas = np.bincount(g, _crossing(a, b, q) + runs, r2.size).reshape(r2.shape)
    areas = areas.astype(np.float64, copy=False)  # bincount counts in integers when g is empty

    # radii that cut no edge enclose every vertex or none
    whole = np.ones(r2.shape, dtype=bool)
    whole.flat[g] = False
    winding = np.where(ring.imag > math.pi, _TWO_PI, 0.0)[:, None]  # 2*pi or 0, exactly
    areas[whole] = (r2 * winding)[whole]
    enclosing = whole & (_abs2(vertices[:, :1]) <= r2)
    areas[enclosing] = np.broadcast_to(ring.real[:, None], r2.shape)[enclosing]
    return areas


def _crossing(a: np.ndarray, b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Twice the area of disc(0, sqrt(q)) meet triangle(0, a, b), for an edge (a, b) it crosses.

    With p1 and p2 the edge-circle roots clipped to the edge, that is
    cross(p1, p2) plus q times the angles a -> p1 and p2 -> b.
    """
    d = b - a
    dd = _abs2(d)
    dd = np.where(dd > 0.0, dd, 1.0)  # a zero-length edge puts both roots on a
    ad = a.real * d.real + a.imag * d.imag
    sq = np.sqrt(np.maximum(ad * ad - dd * (_abs2(a) - q), 0.0))
    p1 = a + np.clip((-ad - sq) / dd, 0.0, 1.0) * d
    p2 = a + np.clip((-ad + sq) / dd, 0.0, 1.0) * d
    return (p1.conj() * p2).imag + q * (np.angle(a.conj() * p1) + np.angle(p2.conj() * b))


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|**2, by one formula wherever the ring areas class a vertex against a radius."""
    return z.real * z.real + z.imag * z.imag
