"""Tests of the validate module: its independent area oracle and its verdicts."""

import math

import numpy as np
import pytest

from arraytol import power_bounds, probability_map, run_mc, scenario_from_tolerances, uniform_grid
from arraytol.geometry import disc_polygon_areas
from arraytol.validate import disc_polygon_area_quadrature, run_validation

from helpers import disc_convex_area_slab, random_convex_vertices


class TestAreaQuadrature:
    @pytest.mark.parametrize("start", range(4))
    def test_rectangle_inside_the_disc_at_every_start(self, start):
        # vertical edges at both x extremes: the end columns must see the
        # whole slice whichever vertex the ring starts at
        rect = np.roll([-0.3 - 0.2j, 0.4 - 0.2j, 0.4 + 0.5j, -0.3 + 0.5j], start)
        areas = disc_polygon_area_quadrature([1.0, 2.0], rect)
        assert np.allclose(areas, 0.7 * 0.7, rtol=0.0, atol=1e-12)

    def test_random_polygons_match_both_other_oracles(self):
        rng = np.random.default_rng(11)
        polys = [
            random_convex_vertices(rng, 9, scale=1.0, center=center)
            for center in (0j, 0.3 - 0.2j, 2.5 + 1j, -1.5 - 2j) * 3
        ]
        for p in polys:
            far = float(np.abs(p).max())
            radii = far * np.array([0.25, 0.5, 0.8, 1.0, 1.5])
            areas = disc_polygon_area_quadrature(radii, p)
            exact = disc_polygon_areas(radii[None], p[None], [len(p)])[0]
            slab = [disc_convex_area_slab(r, p) for r in radii.tolist()]
            tol = 1e-5 * exact[-1]
            assert areas == pytest.approx(exact, rel=1e-5, abs=tol)
            assert areas == pytest.approx(slab, rel=1e-5, abs=tol)

    @pytest.mark.parametrize(
        "vertices, radii",
        [
            ([0.5 + 0.5j], [0.0, 1.0, 2.0]),
            ([-0.5 - 0.2j, 0.8 + 0.4j], [0.0, 0.5, 2.0]),
            ([-1.0 - 1.0j, 1.0 - 1.0j, 1.0j], [0.0]),
        ],
        ids=["point", "segment", "zero-radius"],
    )
    def test_zero_area(self, vertices, radii):
        areas = disc_polygon_area_quadrature(radii, vertices)
        assert areas.shape == (len(radii),)
        assert np.all(areas == 0.0)


class TestAmplitudeScale:
    @staticmethod
    def _mc(scale):
        scen = scenario_from_tolerances([(scale, 0.0)] * 3, 0.01, math.radians(3.0), 0.5)
        return run_mc(probability_map(power_bounds(scen, uniform_grid(41)), 3), 5000, seed=0)

    @pytest.mark.parametrize("scale", [1e-12, 1e-9, 3e-8, 1.0, 1e6])
    def test_regions_and_verdicts_do_not_depend_on_scale(self, scale):
        # the geometry tolerances are relative: scaling every amplitude
        # scales the regions and leaves their vertices and rings alone
        ref, mc = self._mc(1.0).pmap, self._mc(scale)
        assert np.array_equal(mc.pmap.bounds.n_vertices, ref.bounds.n_vertices)
        assert np.array_equal(mc.pmap.degenerate, ref.degenerate)
        assert [r.name for r in run_validation(mc) if not r.passed] == []
