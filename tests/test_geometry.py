"""Geometry kernel tests: polygonization, Minkowski sums, circle intersections."""

import math

import numpy as np
import pytest

from arraytol import ValidationError
from arraytol import geometry
from arraytol.geometry import (
    disc_polygon_areas,
    polygonize_interval_phasors,
    rotated_minkowski_sums,
)
from arraytol.validate import ROUNDING_BAR, disc_polygon_area_exact

from helpers import (
    boundary_distance,
    circular_segment_area,
    contains_point,
    convex_polygon,
    disc_convex_area_point_grid,
    disc_convex_area_slab,
    disc_polygon_intersection_area,
    distance_bounds_to_origin,
    minkowski_sum_area_brute,
    minkowski_sum_many,
    padded,
    points_in_convex,
    polygon_area,
    polygonize_interval_phasor,
    random_convex_vertices,
    taylor_taper,
)


class TestConvexPolygonFactory:
    def test_single_point(self):
        p = convex_polygon([1 + 2j])
        assert len(p) == 1

    def test_welds_duplicates(self):
        p = convex_polygon([0j, 0j, 1 + 0j, 1 + 0j, 1j])
        assert len(p) == 3
        # the step into the near-duplicate is parallel to the edge, and is welded
        # without dropping the corner after it
        assert len(convex_polygon([0j, 1 + 0j, 1 + 1e-12 + 0j, 1 + 1j, 1j])) == 4
        # a welded step between two parallel steps: the two still merge, also
        # when the welded step leaves the line and the step after it returns
        assert len(convex_polygon([0j, 1 + 0j, 1 + 1e-12 + 0j, 2 + 0j, 2 + 1j, 1j])) == 4
        assert len(convex_polygon([0j, 1 + 0j, 1 + 1e-10j, 2 + 0j, 2 + 1j, 1j])) == 4

    def test_drops_collinear(self):
        p = convex_polygon([0j, 0.5 + 0j, 1 + 0j, 1 + 1j, 1j])
        assert len(p) == 4

    def test_rejects_clockwise(self):
        with pytest.raises(ValidationError):
            convex_polygon([0j, 1j, 1 + 0j])

    @pytest.mark.parametrize("scale", [10.0**k for k in range(-12, 7)])
    def test_orientation_check_is_scale_free(self, scale):
        # the clockwise slack scales with the ring, as the weld does
        assert len(convex_polygon(scale * np.array([0j, 1 + 0j, 1j]))) == 3
        with pytest.raises(ValidationError):
            convex_polygon(scale * np.array([0j, 1j, 1 + 0j]))

    def test_rejects_nonconvex(self):
        with pytest.raises(ValidationError):
            convex_polygon([0j, 2 + 0j, 1 + 0.2j, 2 + 2j, 0 + 2j])

    def test_rejects_nonfinite(self):
        # a sum rejects a non-finite operand vertex or angle before any
        # arithmetic on it, so with no warning: here at every vertex of a
        # triangle that a square's row pads, and in one row's rotation of it
        square, triangle = [0j, 1 + 0j, 1 + 1j, 1j], [2 + 0j, 3 + 0j, 2 + 1j]
        for bad in (complex(math.nan, 0), complex(math.inf, 0), complex(-math.inf, 0),
                    complex(math.inf, math.nan)):
            with pytest.raises(ValidationError):
                convex_polygon([0j, bad, 1j])
            for k in range(3):
                operands = padded([square, triangle[:k] + [bad] + triangle[k + 1 :]])
                with pytest.raises(ValidationError):
                    rotated_minkowski_sums(*operands, np.zeros((3, 2)))
            angles = np.zeros((3, 2))
            angles[1, 1] = bad.real
            with pytest.raises(ValidationError):
                rotated_minkowski_sums(*padded([square, triangle]), angles)

    def test_rejects_zero_operands(self):
        with pytest.raises(ValidationError, match="a Minkowski sum needs at least one polygon"):
            rotated_minkowski_sums(np.empty((0, 4), complex), np.empty(0, np.int64), np.empty((3, 0)))

    def test_does_not_alias_its_input(self):
        square = np.array([0j, 1 + 0j, 1 + 1j, 1j])  # nothing to weld or drop
        p = convex_polygon(square)
        square[:] = 5.0
        assert np.array_equal(p, [0j, 1 + 0j, 1 + 1j, 1j])


class TestPolygonizeIntervalPhasor:
    def test_zero_width_collapses_to_point(self):
        p = polygonize_interval_phasor(1.0, 1.0, 0.0, 0.0, arc_points=8)
        assert len(p) == 1
        assert p[0] == pytest.approx(1.0 + 0.0j)

    def test_corners_are_members(self):
        lo, hi = 0.99, 1.01
        g = math.radians(3.0)
        p = polygonize_interval_phasor(lo, hi, -g, g, arc_points=8)
        for a in (lo, hi):
            for b in (-g, g):
                assert contains_point(p, a * complex(math.cos(b), math.sin(b)))

    def test_quarter_annulus_area_brackets(self):
        lo, hi = 0.5, 1.0
        width = math.pi / 2.0
        sector = 0.5 * width * (hi * hi - lo * lo)
        # convex hull adds the chord segment of the inner arc
        hull = sector + 0.5 * lo * lo * (width - math.sin(width))
        for m in (4, 8, 16, 32):
            area = polygon_area(polygonize_interval_phasor(lo, hi, 0.0, width, arc_points=m))
            assert area >= sector
            assert hull <= area <= hull * (1.0 + 2.0 / m**2)

    def test_area_shrinks_monotonically_with_doubling(self):
        lo, hi = 0.5, 1.0
        width = math.pi / 2.0
        hull = 0.5 * width * (hi * hi - lo * lo) + 0.5 * lo * lo * (width - math.sin(width))
        areas = [
            polygon_area(polygonize_interval_phasor(lo, hi, 0.0, width, arc_points=m))
            for m in (4, 8, 16, 32, 64)
        ]
        for coarse, fine in zip(areas, areas[1:]):
            assert hull <= fine <= coarse

    def test_inclusion_fuzz(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            lo = rng.uniform(0.0, 1.5)
            hi = lo + rng.uniform(0.0, 0.5)
            mid = rng.uniform(-math.pi, math.pi)
            half = rng.uniform(0.0, 0.49 * math.pi)
            p = polygonize_interval_phasor(lo, hi, mid - half, mid + half, arc_points=6)
            amps = rng.uniform(lo, hi, 1000)
            phases = rng.uniform(mid - half, mid + half, 1000)
            members = amps * np.exp(1j * phases)
            assert points_in_convex(p, members).all()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            polygonize_interval_phasor(1.0, 0.5, 0.0, 0.1)
        with pytest.raises(ValidationError):
            polygonize_interval_phasor(-0.1, 0.5, 0.0, 0.1)
        with pytest.raises(ValidationError):
            polygonize_interval_phasor(0.5, 1.0, 0.0, math.pi)
        with pytest.raises(ValidationError):
            polygonize_interval_phasor(0.5, 1.0, 0.0, 0.1, arc_points=1)
        for arc_points in (2.5, True):
            with pytest.raises(ValidationError, match="integer"):
                polygonize_interval_phasor(0.5, 1.0, 0.0, 0.1, arc_points=arc_points)

    def test_batch_rows_are_the_single_sectors(self):
        # zero-width and repeated-corner sectors among wide ones: their rows
        # are padded with repeats of their vertex 0
        sectors = [(0.9, 1.1, -0.1, 0.1), (0.5, 0.7, 0.3, 0.3), (0.0, 1.0, 1.0, 1.2),
                   (1.0, 1.0, -2.0, -2.0), (0.0, 0.0, 0.0, 0.0), (0.8, 0.8, 0.5, 0.7)]
        vertices, n_vertices = polygonize_interval_phasors(sectors, arc_points=5)
        assert vertices.shape == (len(sectors), 5 + 4)
        assert n_vertices.tolist() == [9, 2, 8, 1, 1, 7]
        for row, n, sector in zip(vertices, n_vertices, sectors):
            assert np.all(row[n:] == row[0])
            single = polygonize_interval_phasor(*sector, arc_points=5)
            assert row[:n].tobytes() == single.tobytes()

    @staticmethod
    def _ray(amp, phase):
        return amp * complex(math.cos(phase), math.sin(phase))

    def test_drops_exact_repeats_only(self):
        # a sector 1e-10 rad wide keeps every vertex, 3e-11 or less apart
        p = polygonize_interval_phasor(0.98, 1.02, 0.0, 1e-10, arc_points=8)
        assert len(p) == 12
        assert np.abs(np.diff(p[1:-1])).max() < 3e-11
        assert p[0] == 0.98 and p[-1] == self._ray(0.98, 1e-10)
        # amp_lo == amp_hi: the two radial edges vanish, the arc stays
        p = polygonize_interval_phasor(0.8, 0.8, 0.5, 0.7, arc_points=4)
        assert len(p) == 6
        assert p[0] == self._ray(0.8, 0.5) and p[-1] == self._ray(0.8, 0.7)
        # amp_lo == 0: the inner chord's two ends are one vertex, the origin
        p = polygonize_interval_phasor(0.0, 1.0, 0.5, 0.7, arc_points=4)
        assert len(p) == 7
        assert p[0] == self._ray(1.0, 0.5) and p[-1] == 0.0

    @pytest.mark.parametrize(
        "sector, expected",
        [((0.5, 0.7, 0.3, 0.3), [(0.7, 0.3), (0.5, 0.3)]),
         ((0.0, 0.7, 0.3, 0.3), [(0.7, 0.3), (0.0, 0.3)]),
         ((0.7, 0.7, 0.3, 0.3), [(0.7, 0.3)]),
         ((0.0, 0.0, 0.3, 0.3), [(0.0, 0.3)]),
         ((0.0, 0.0, 0.3, 0.5), [(0.0, 0.3)])],
        ids=["zero-width", "zero-width-from-origin", "point", "zero", "zero-amplitude"],
    )
    def test_repeats_collapse_to_a_segment_or_a_point(self, sector, expected):
        p = polygonize_interval_phasor(*sector, arc_points=4)
        assert p.tolist() == [self._ray(*v) for v in expected]

    def test_batch_reports_the_bad_sector(self):
        good = (0.5, 1.0, 0.0, 0.1)
        for bad, match in (((1.0, 0.5, 0.0, 0.1), "amplitude interval"),
                           ((0.5, 1.0, 0.2, 0.1), "reversed"),
                           ((0.5, 1.0, 0.0, math.pi), "below pi")):
            with pytest.raises(ValidationError, match=match):
                polygonize_interval_phasors([good, bad, good])

    def test_boundary_width_just_below_pi_accepted(self):
        p = polygonize_interval_phasor(0.5, 1.0, 0.0, math.pi * (1 - 1e-9), arc_points=8)
        assert len(p) >= 4


class TestMinkowskiSum:
    def test_point_translation(self):
        p = convex_polygon([1 + 0j])
        q = convex_polygon([1j])
        s = minkowski_sum_many((p, q))
        assert len(s) == 1
        assert s[0] == 1 + 1j

    def test_unit_squares(self):
        sq = convex_polygon([0j, 1 + 0j, 1 + 1j, 1j])
        s = minkowski_sum_many((sq, sq))
        assert polygon_area(s) == pytest.approx(4.0)
        assert len(s) == 4
        # a square of side 1e-12 makes steps the weld drops, each one after a
        # parallel unit step: the corners stay
        s = minkowski_sum_many((sq, 1e-12 * sq))
        assert polygon_area(s) == pytest.approx(1.0)
        assert len(s) == 4

    def test_square_plus_triangle_hexagon(self):
        sq = convex_polygon([0j, 1 + 0j, 1 + 1j, 1j])
        tri = convex_polygon([0j, 1 + 0j, 1j])
        s = minkowski_sum_many((sq, tri))
        assert polygon_area(s) == pytest.approx(3.5)
        assert len(s) == 5  # two collinear edge pairs merge
        brute = minkowski_sum_area_brute(sq, tri)
        assert polygon_area(s) == pytest.approx(brute, rel=1e-12)

    def test_segment_operands(self):
        seg_h = convex_polygon([0j, 2 + 0j])
        seg_v = convex_polygon([0j, 1j])
        s = minkowski_sum_many((seg_h, seg_v))
        assert polygon_area(s) == pytest.approx(2.0)
        parallel = minkowski_sum_many((seg_h, convex_polygon([0j, 3 + 0j])))
        assert len(parallel) == 2
        assert abs(parallel[1] - parallel[0]) == pytest.approx(5.0)
        # vertex 0 is where the trace starts, so the ends are compared in either order
        ray = complex(math.cos(2.0), math.sin(2.0))
        a, b = [0.3 + 0.1j, 0.3 + 0.1j + 2 * ray], [-1j, -1j + 3 * ray]
        tilted = minkowski_sum_many((convex_polygon(a), convex_polygon(b)))
        assert len(tilted) == 2
        ends = [a[0] + b[0], a[1] + b[1]]
        assert sorted(tilted.tolist(), key=abs) == pytest.approx(sorted(ends, key=abs), abs=1e-12)
        # a point's zero step sorts between two segments' parallel steps
        sectors = [(0.9, 1.1, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), (0.8, 1.0, 0.0, 0.0)]
        s, n, _ = rotated_minkowski_sums(*polygonize_interval_phasors(sectors), np.zeros(3))
        assert n.tolist() == [2]
        lo, hi = geometry.modulus_bounds(s, n)
        assert lo[0] == pytest.approx(0.9 + 0.8) and hi[0] == pytest.approx(1.1 + 1.0)

    @pytest.mark.parametrize("offset", [1e2, 1e3, 1e4])
    def test_copies_of_one_square_far_out_sum_to_a_square(self, offset):
        # the copies' steps are equal and parallel, and merge at any offset
        square = 1e-3 * np.exp(0.3j) * np.array([0, 1, 1 + 1j, 1j]) + offset * (1 + 1j)
        s = minkowski_sum_many([square] * 3)
        assert len(s) == 4
        assert polygon_area(s - 3 * offset * (1 + 1j)) == pytest.approx(9e-6, rel=1e-6)

    def test_homothetic_sectors_sum_to_one_sector_shape(self):
        # sectors of one phase interval at one rotation have parallel edges,
        # so their sum has as many vertices as each of them
        sectors = [(0.99 * a, 1.01 * a, -0.05, 0.05) for a in taylor_taper(64)]
        vertices, n_vertices = polygonize_interval_phasors(sectors, arc_points=8)
        _, n, _ = rotated_minkowski_sums(vertices, n_vertices, np.full(len(sectors), 0.4))
        assert n.tolist() == [8 + 4]

    def test_sliver_whose_bulge_rounds_together_sums_to_its_hull(self):
        # a sector 1e-41 rad wide, rotated by pi/2: rounding puts its bulge
        # vertices onto one another, and their zero-length edges head 0, the
        # least heading, however far they lie from the first nonzero edge
        vertices, n_vertices = polygonize_interval_phasors(
            [(1.0, 1.0, 0.0, 0.0), (0.75, 1.0, 0.0, 1.03e-41)], arc_points=4
        )
        angles = np.array([0.0, 0.5 * math.pi])
        rotated = vertices * np.exp(1j * angles)[:, None]
        assert np.any(rotated[1, 1 : n_vertices[1]] == rotated[1, : n_vertices[1] - 1])
        sums, counts, _ = rotated_minkowski_sums(vertices, n_vertices, angles)
        # the brute-force hull of the vertex sums is the vertical segment
        # between the lowest and the highest of them
        brute = (rotated[0, : n_vertices[0], None] + rotated[1, : n_vertices[1]]).ravel()
        assert np.abs(brute.real - 1.0).max() <= 1e-15
        hull = brute[[np.argmin(brute.imag), np.argmax(brute.imag)]]
        assert counts.tolist() == [2]
        assert boundary_distance(sums[0, :2], hull) <= 1e-15

    def test_brute_force_fuzz(self):
        rng = np.random.default_rng(7)
        cases = [
            (random_convex_vertices(rng, rng.integers(4, 9)),
             random_convex_vertices(rng, rng.integers(4, 9)))
            for _ in range(200)
        ]
        # a far square whose bottom edge tilts by about 1e-11: a translated sum
        # has the right area, so only the vertex sums show where it lies
        for dy in (1e-11, 5e-11, 1e-10):
            square = [100 + (100 + dy) * 1j, 101 + 100j, 101 + 101j, 100 + 101j]
            cases.append((np.array([0, 1, 1j]), np.array(square)))
        for a, b in cases:
            s = minkowski_sum_many((convex_polygon(a), convex_polygon(b)))
            brute = minkowski_sum_area_brute(a, b)
            assert polygon_area(s) == pytest.approx(brute, rel=1e-9)
            assert points_in_convex(s, (a[:, None] + b[None, :]).ravel()).all()

    def test_many_operands_associative(self):
        rng = np.random.default_rng(11)
        polys = [convex_polygon(random_convex_vertices(rng, 6)) for _ in range(4)]
        chained = polys[0]
        for p in polys[1:]:
            chained = minkowski_sum_many((chained, p))
        direct = minkowski_sum_many(polys)
        assert polygon_area(direct) == pytest.approx(polygon_area(chained), rel=1e-12)

    def test_columns_past_the_widest_operand_change_no_bit(self):
        # sectors come as wide as arc_points + 4 whatever their vertex counts
        rng = np.random.default_rng(13)
        polys = [random_convex_vertices(rng, k) for k in (3, 5, 7)] + [np.array([0.5 + 0.5j])]
        vertices, n_vertices = padded(polys)
        wide = np.concatenate((vertices, np.repeat(vertices[:, :1], 4, axis=1)), axis=1)
        angles = rng.uniform(-math.pi, math.pi, (6, len(polys)))
        sums, counts, _ = rotated_minkowski_sums(vertices, n_vertices, angles)
        wide_sums, wide_counts, _ = rotated_minkowski_sums(wide, n_vertices, angles)
        assert np.array_equal(counts, wide_counts)
        assert sums.tobytes() == wide_sums.tobytes()


class TestDistanceBounds:
    def test_offset_square(self):
        p = convex_polygon([1 + 1j, 3 + 1j, 3 + 3j, 1 + 3j])
        lo, hi = distance_bounds_to_origin(p)
        assert lo == pytest.approx(math.sqrt(2.0))
        assert hi == pytest.approx(3.0 * math.sqrt(2.0))

    def test_origin_inside(self):
        p = convex_polygon([-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j])
        lo, hi = distance_bounds_to_origin(p)
        assert lo == 0.0
        assert hi == pytest.approx(math.sqrt(2.0))

    def test_segment(self):
        p = convex_polygon([2 + 0j, 2j])
        lo, hi = distance_bounds_to_origin(p)
        assert lo == pytest.approx(math.sqrt(2.0))
        assert hi == pytest.approx(2.0)
        # dense sampling of the segment never beats the reported minimum
        ts = np.linspace(0.0, 1.0, 10001)
        pts = (2 + 0j) + ts * (2j - (2 + 0j))
        assert np.abs(pts).min() >= lo - 1e-12

    def test_point(self):
        p = convex_polygon([3 + 4j])
        assert distance_bounds_to_origin(p) == (5.0, 5.0)

    def test_rows_are_independent(self):
        # the nearest-point search runs only on the rows whose region does not
        # contain the origin; each row of a padded batch, in either order,
        # has the bits of the one-row call
        polys = [
            np.array([0.3 + 0.4j]),
            np.array([1 + 1j, 2 + 0.5j]),
            np.array([2 + 1j, 3 + 1j, 3 + 2j, 2 + 2j]),
            np.array([-1 - 1j, 2 - 1j, 2j]),
            np.array([-1 + 1e-12j, 1 + 1e-12j, 1 + 1j, -1 + 1j]),  # origin 1e-12 off an edge
        ]
        single = [np.array(distance_bounds_to_origin(p)) for p in polys]
        nearest = [pytest.approx(x) for x in (0.5, math.sqrt(2.0), math.sqrt(5.0))] + [0.0, 0.0]
        assert [s[0] for s in single] == nearest
        for order in (polys, polys[::-1]):
            lo, hi = geometry.modulus_bounds(*padded(order))
            expected = single if order is polys else single[::-1]
            for i, bounds in enumerate(expected):
                assert np.array([lo[i], hi[i]]).tobytes() == bounds.tobytes()


class TestAreas:
    def test_polygon_area_examples(self):
        assert polygon_area([0j, 1 + 0j, 1j]) == pytest.approx(0.5)
        assert polygon_area([0j, 1 + 0j, 1 + 1j, 1j]) == pytest.approx(1.0)
        assert polygon_area([0j, 4 + 0j, 4 + 3j, 3j]) == pytest.approx(12.0)
        assert polygon_area([0j, 1 + 0j]) == 0.0


class TestCircularSegment:
    def test_quarter_circle_chord(self):
        area = circular_segment_area(1.0, 1 + 0j, 1j)
        assert area == pytest.approx(math.pi / 4.0 - 0.5)

    def test_half_disc(self):
        assert circular_segment_area(1.0, 1 + 0j, -1 + 0j) == pytest.approx(math.pi / 2.0)

    def test_r2_chord2_against_quadrature(self):
        # chord length 2 on a radius-2 circle; oracle integrates the cap
        r, c = 2.0, 2.0
        d = math.sqrt(r * r - (c / 2.0) ** 2)  # chord distance from center
        xs = np.linspace(d, r, 200001)
        oracle = float(np.trapezoid(2.0 * np.sqrt(r * r - xs * xs), xs))
        a1 = r * complex(math.cos(0.3), math.sin(0.3))
        rot = complex(math.cos(math.pi / 3.0), math.sin(math.pi / 3.0))
        area = circular_segment_area(r, a1, a1 * rot)
        assert area == pytest.approx(4.0 * math.asin(0.5) - math.sqrt(3.0), abs=1e-12)
        assert area == pytest.approx(oracle, abs=1e-6)

    def test_rejects_points_off_circle(self):
        with pytest.raises(ValidationError):
            circular_segment_area(1.0, 1.5 + 0j, 1j)


def _tri(*pts):
    return np.array([complex(p) for p in pts])


class TestCircleTriangleIntersection:
    def test_triangle_inside_disc(self):
        assert disc_polygon_intersection_area(10.0, _tri(0, 1, 1j)) == pytest.approx(0.5)

    def test_disc_inside_triangle(self):
        area = disc_polygon_intersection_area(0.1, _tri(-5 - 5j, 5 - 5j, 5j))
        assert area == pytest.approx(math.pi * 0.01)

    def test_disjoint(self):
        assert disc_polygon_intersection_area(1.0, _tri(10 + 10j, 11 + 10j, 10 + 11j)) == 0.0

    def test_zero_radius(self):
        assert disc_polygon_intersection_area(0.0, _tri(0, 1, 1j)) == 0.0

    def test_quarter_disc_against_point_grid(self):
        tri = _tri(0, 2, 2j)
        area = disc_polygon_intersection_area(1.0, tri)
        assert area == pytest.approx(math.pi / 4.0, abs=1e-12)
        grid = disc_convex_area_point_grid(1.0, [0j, 2 + 0j, 2j], n=1000)
        assert area == pytest.approx(grid, rel=1e-3)

    def test_single_chord_matches_segment_formula(self):
        # all vertices outside, one edge y=-0.5 cuts the disc; the
        # intersection is the cap below the chord (frozen via adaptive
        # quadrature: 0.6141848493043784, analytically pi/3 - sqrt(3)/4)
        tri = _tri(4 - 0.5j, -4 - 0.5j, -5j)
        area = disc_polygon_intersection_area(1.0, tri)
        x = math.sqrt(0.75)
        seg = circular_segment_area(1.0, complex(x, -0.5), complex(-x, -0.5))
        assert area == pytest.approx(seg, abs=1e-12)
        assert area == pytest.approx(0.6141848493043784, abs=1e-12)

    def test_one_chord_origin_inside_is_complement(self):
        # disc pokes out through a single edge: area is the disc minus a cap
        tri = _tri(-5 - 0.5j, 5 - 0.5j, 8j)
        x = math.sqrt(1.0 - 0.25)
        cap = circular_segment_area(1.0, complex(-x, -0.5), complex(x, -0.5))
        area = disc_polygon_intersection_area(1.0, tri)
        assert area == pytest.approx(math.pi - cap, abs=1e-12)

    def test_two_chords_complement_of_two_caps(self):
        # bottom chord plus two upper-edge chords with one vertex inside
        # (frozen via adaptive quadrature with breakpoints)
        tri = _tri(-5 - 0.5j, 5 - 0.5j, 0 + 0.8j)
        area = disc_polygon_intersection_area(1.0, tri)
        assert area == pytest.approx(2.2336535905994963, abs=1e-12)

    def test_sliver_strip(self):
        # thin strip crossing the disc: no vertices inside, two chords
        # (frozen via adaptive quadrature: 0.06144880816039789)
        tri = _tri(1.1 + 0.5j, -2 + 0.55j, -2 + 0.45j)
        area = disc_polygon_intersection_area(1.0, tri)
        assert area == pytest.approx(0.06144880816039789, abs=1e-12)

    def test_continuity_across_vertex_on_circle(self):
        base = [0.3 + 0.2j, 1.0 + 0j, 0.2 + 0.9j]
        areas = []
        for eps in (-1e-9, 0.0, 1e-9):
            tri = _tri(base[0], (1.0 + eps) + 0j, base[2])
            areas.append(disc_polygon_intersection_area(1.0, tri))
        assert abs(areas[0] - areas[1]) < 1e-6
        assert abs(areas[2] - areas[1]) < 1e-6

    def test_tangent_edge_counts_as_non_crossing(self):
        # edge y = 1 exactly tangent to the unit disc from outside
        tri = _tri(-3 + 1j, 3 + 1j, 4j)
        assert disc_polygon_intersection_area(1.0, tri) == 0.0

    def test_polygon_area_matches_slab_oracle(self):
        rng = np.random.default_rng(5)
        polys = [
            convex_polygon(random_convex_vertices(rng, 8, scale=1.0, center=center))
            for center in (0j, 0.3 - 0.2j, 2.5 + 1j, -1.5 - 2j) * 5
        ]
        polys.append(convex_polygon([-1 + 0j, 1 + 0j, 1 + 2j, -1 + 2j]))  # origin on an edge
        where = {contains_point(p, 0j) for p in polys}
        assert where == {True, False}
        for p in polys:
            far = float(np.abs(p).max())
            for r in (0.25 * far, 0.5 * far, 0.8 * far, far, 1.5 * far):
                whole = disc_polygon_intersection_area(r, p)
                oracle = disc_convex_area_slab(r, p)
                assert whole == pytest.approx(oracle, rel=0.0, abs=1e-13 * max(1.0, oracle))
            # beyond the farthest vertex the disc covers the whole polygon
            assert disc_polygon_intersection_area(1.5 * far, p) == pytest.approx(
                polygon_area(p), rel=1e-12
            )


class TestDiscPolygonAreas:
    def test_no_area_below_three_vertices(self):
        # a point and a segment, each padded, beside a triangle
        vertices = np.array([[2j, 2j, 2j], [0.5 + 0j, 0.5j, 0.5 + 0j], [0, 1, 1j]])
        areas = disc_polygon_areas(np.full((3, 2), [0.6, 5.0]), vertices, [1, 2, 3])
        assert np.all(areas[:2] == 0.0)
        assert areas[2, 1] == pytest.approx(0.5)

    def test_padding_leaves_the_bits_unchanged(self):
        rng = np.random.default_rng(3)
        polys = [random_convex_vertices(rng, 9, center=c) for c in (0j, 1 + 0.5j, -3j)]
        n = np.array([len(p) for p in polys])
        padded = np.array([np.concatenate((p, np.repeat(p[:1], 12 - len(p)))) for p in polys])
        radii = np.linspace(0.1, 6.0, 3 * 6).reshape(3, 6)
        areas = disc_polygon_areas(radii, padded, n)
        for i, p in enumerate(polys):
            alone = disc_polygon_areas(radii[i : i + 1], p[None], [len(p)])
            assert np.array_equal(areas[i], alone[0])

    @pytest.mark.parametrize("case", range(7))
    def test_radii_at_the_class_boundaries(self, case):
        # an edge lies inside a disc from its farther end's modulus up and
        # outside it from its distance to the origin down; radii on both, and
        # one ulp either side, must keep the areas monotone and on the exact oracle
        rng = np.random.default_rng(17 + case)
        if case < 5:
            center = (0j, 0.4 - 0.3j, 0.9 + 0.2j, 2.5 + 1j, -1.5 - 2j)[case]
            p = random_convex_vertices(rng, 9, scale=1.0, center=center)
        elif case == 5:  # the bottom edge crosses circles of radius 0.5..2.06 twice
            p = np.array([-2 + 0.5j, 2 + 0.5j, 2 + 1.5j, -2 + 1.5j])
        else:  # a repeated vertex makes a zero-length edge
            p = np.array([0.3 - 1j, 1.2 + 0.1j, 1.2 + 0.1j, -0.4 + 0.8j])
        d = np.roll(p, -1) - p
        t = np.clip(-(p.conj() * d).real / np.maximum(np.abs(d) ** 2, 1e-300), 0.0, 1.0)
        base = np.concatenate((np.abs(p), np.abs(p + t * d)))
        radii = np.unique(np.concatenate((base, np.nextafter(base, 0.0), np.nextafter(base, 9.0))))
        areas = disc_polygon_areas(radii[None], p[None], [len(p)])[0]
        whole = polygon_area(p)
        assert np.all(np.diff(areas) >= -1e-12 * whole)
        assert areas[-1] == pytest.approx(whole, rel=1e-12)
        oracle = disc_polygon_area_exact(radii, p[p != np.roll(p, 1)])  # no repeats
        assert areas == pytest.approx(oracle, rel=0.0, abs=1e-13 * whole)
        # among rows of another width and vertex count, the bits stay the same
        other = random_convex_vertices(rng, 12, center=0.5j)
        width = max(len(p), len(other)) + 3
        padded = np.array(
            [np.concatenate((q, np.repeat(q[:1], width - len(q)))) for q in (other, p)]
        )
        both = disc_polygon_areas(np.stack((radii, radii)), padded, [len(other), len(p)])
        assert np.array_equal(both[1], areas)

    @staticmethod
    def _match_slab_oracle(p, radii):
        """Areas of region p at radii against the slab oracle, within validate's rounding bar.

        The bar on an area is ROUNDING_BAR * n * P * R, for n vertices,
        perimeter P and farthest vertex modulus R.
        """
        areas = disc_polygon_areas(np.asarray(radii)[None], p[None], [len(p)])[0]
        oracle = [disc_convex_area_slab(float(r), p) for r in radii]
        perimeter = float(np.abs(np.diff(p, append=p[:1])).sum())
        bar = ROUNDING_BAR * len(p) * perimeter * float(np.abs(p).max())
        assert areas == pytest.approx(oracle, rel=0.0, abs=bar)
        return areas

    def test_region_far_from_the_origin(self):
        # over 200 times its own size away, so its fan terms about the origin
        # are that many times its area; the runs take them about a vertex
        rng = np.random.default_rng(29)
        p = convex_polygon(random_convex_vertices(rng, 12, scale=1.0, center=800 * np.exp(0.3j)))
        lo, hi = distance_bounds_to_origin(p)
        assert lo >= 200 * np.abs(p[:, None] - p[None, :]).max()
        areas = self._match_slab_oracle(p, lo + (hi - lo) * np.linspace(0.05, 0.95, 7))
        assert np.all(np.diff(areas) > 0.0)

    def test_region_around_the_origin_with_an_inside_run_past_vertex_0(self):
        # an ellipse around the origin whose vertex 0 lies nearest it: at
        # radius 1 vertices n - 1, 0 and 1 are inside, so the inside run
        # wraps from the last vertex to the first
        theta = math.pi + 2 * math.pi * np.arange(12) / 12
        p = 1.2 + 2.0 * np.cos(theta) + 1.5j * np.sin(theta)
        assert np.flatnonzero(np.abs(p) <= 1.0).tolist() == [0, 1, 11]
        self._match_slab_oracle(p, [0.5, 0.85, 1.0, 1.5, 2.5, 3.0])
        # within every edge's distance the disc lies inside the region
        assert disc_polygon_areas([[0.5]], p[None], [12])[0, 0] == pytest.approx(0.25 * math.pi)

    def test_vertex_exactly_on_the_circle(self):
        # |3 + 4j|**2 == 25.0 exactly: the vertex is inside the disc of radius 5
        p = convex_polygon([3 + 4j, 1 + 7j, -2 + 5j, -1 + 2j])
        radii = [np.nextafter(5.0, 0.0), 5.0, np.nextafter(5.0, 9.0)]
        areas = self._match_slab_oracle(p, radii)
        assert np.all(np.diff(areas) >= 0.0)
        assert areas[2] - areas[0] < 1e-12 * polygon_area(p)

    def test_steered_sum_of_768_vertices(self):
        rng = np.random.default_rng(31)
        sectors = []
        for n, a in enumerate(taylor_taper(64)):
            phase = math.radians(30.0 * n)
            da, dp = rng.uniform(0.005, 0.02, 2), np.radians(rng.uniform(1.0, 4.0, 2))
            sectors.append((a * (1 - da[0]), a * (1 + da[1]), phase - dp[0], phase + dp[1]))
        vertices, n_vertices = polygonize_interval_phasors(sectors, arc_points=8)
        angles = math.pi * 0.37 * np.arange(len(sectors))
        sums, counts, _ = rotated_minkowski_sums(vertices, n_vertices, angles)
        assert counts.tolist() == [768]
        p = sums[0]
        lo, hi = distance_bounds_to_origin(p)
        self._match_slab_oracle(p, lo + (hi - lo) * np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0]))
