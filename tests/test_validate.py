"""Tests of the validate module: its independent area oracle and its verdicts."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from arraytol import (
    ExcitationInterval,
    power_bounds,
    probability_map,
    run_mc,
    scenario_from_tolerances,
    uniform_grid,
)
from arraytol import iams
from arraytol.geometry import disc_polygon_areas
from arraytol.validate import (
    _oracle_regions,
    _symmetry_check,
    disc_polygon_area_quadrature,
    run_validation,
)

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


    def test_peak_does_not_grow_with_radii(self):
        vertices = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)) + 0.3

        def peak(n_radii):
            radii = np.linspace(0.0, 1.5, n_radii)
            tracemalloc.start()
            try:
                disc_polygon_area_quadrature(radii, vertices)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert abs(peak(41) - peak(6)) <= 64 << 10


class TestAmplitudeScale:
    @staticmethod
    def _mc(scale):
        scen = scenario_from_tolerances([(scale, 0.0)] * 3, 0.01, math.radians(3.0), 0.5)
        bounds = power_bounds(scen, uniform_grid(41), ring_counts=(3, 6))
        return run_mc(probability_map(bounds, 3), 5000, seed=0)

    @pytest.mark.parametrize("scale", [1e-12, 1e-9, 3e-8, 1.0, 1e6])
    def test_regions_and_verdicts_do_not_depend_on_scale(self, scale):
        # the geometry tolerances are relative: scaling every amplitude
        # scales the regions and leaves their vertices and rings alone
        ref, mc = self._mc(1.0).pmap, self._mc(scale)
        assert np.array_equal(mc.pmap.bounds.n_vertices, ref.bounds.n_vertices)
        assert np.array_equal(mc.pmap.degenerate, ref.degenerate)
        assert [r.name for r in run_validation(mc) if not r.passed] == []


class TestPatternSymmetry:
    """The check sums some mirrored rows directly and compares them with the copies."""

    @staticmethod
    def _pmap(scen, n_u=41):
        return probability_map(power_bounds(scen, uniform_grid(n_u), ring_counts=(4, 8)), 4)

    @staticmethod
    def _check(pmap):
        """_symmetry_check against the mirror images of the oracle rows' region pass."""
        return _symmetry_check(pmap, _oracle_regions(pmap.bounds))

    @staticmethod
    def _symmetric():
        return scenario_from_tolerances(
            [(a, 0.0) for a in (0.5, 0.8, 1.0, 1.0, 0.8, 0.5)], 0.02, math.radians(4.0), 0.5
        )

    def test_passes_on_the_copies(self):
        result = self._check(self._pmap(self._symmetric()))
        assert result.passed
        assert result.detail.startswith("2 mirrored directions summed directly")

    @pytest.mark.parametrize("row", [6, 13])
    def test_fails_on_a_wrong_mirrored_row(self, row):
        # rows 6 and 13 are the mirrored oracle directions of a 41-sample grid
        pmap = self._pmap(self._symmetric())
        p = pmap.p.copy()
        p[:, row] = p[::-1, row]
        assert not self._check(dataclasses.replace(pmap, p=p)).passed
        hi = pmap.bounds.modulus_hi.copy()
        hi[row] *= 1.0 + 1e-6
        bounds = dataclasses.replace(pmap.bounds, modulus_hi=hi)
        assert not self._check(dataclasses.replace(pmap, bounds=bounds)).passed

    def test_fails_on_images_that_are_not_conjugates(self, monkeypatch):
        # the pass's images as the region at u in the image order, without
        # the conjugation: same moduli, vertex counts and areas as the region at -u
        pmap = self._pmap(self._symmetric())
        image = iams.mirror_image
        monkeypatch.setattr(iams, "mirror_image", lambda *a: np.conjugate(image(*a)))
        assert not self._check(pmap).passed

    def test_not_applicable_without_mirrored_rows(self):
        scen = self._symmetric()
        elements = list(scen.elements)
        elements[2] = dataclasses.replace(elements[2], phase_hi=elements[2].phase_hi + 1e-9)
        nudged = dataclasses.replace(scen, elements=tuple(elements))
        result = self._check(self._pmap(nudged))
        assert result.passed and result.detail == "not applicable (no mirrored rows)"

    def test_collapse_reuses_the_curve_allowance(self, monkeypatch):
        # the only polygonization in the suite is the collapsed scenario's
        # curve: the oracle and direct rows sum the curve's own sectors
        el = ExcitationInterval(1.0, 0.3, 0.99, 1.01, 0.25, 0.35)
        scen = dataclasses.replace(self._symmetric(), elements=(el,) * 4)
        mc = run_mc(self._pmap(scen), 500, seed=0)
        calls = []
        sectors = iams.element_sectors
        monkeypatch.setattr(iams, "element_sectors", lambda *a: calls.append(a) or sectors(*a))
        assert [r.name for r in run_validation(mc) if not r.passed] == []
        assert len(calls) == 1
