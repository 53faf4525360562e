"""Ring-partition probability and feature-interval tests."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from arraytol import (
    AngularGrid,
    ProbabilityMap,
    ValidationError,
    feature_report,
    mean_probabilities,
    power_bounds,
    probability_map,
    scenario_from_tolerances,
    uniform_grid,
)
from arraytol import pia
from arraytol.geometry import _BLOCK_EDGES
from arraytol.pia import _ring_radii, mainlobe_indices

from helpers import (
    boundary_distance,
    convex_polygon,
    direction_region,
    disc_convex_area_slab,
    distance_bounds_to_origin,
    random_convex_vertices,
    region_probabilities,
)


class TestRingPartition:
    def test_uniform_split(self):
        radii = _ring_radii(0.0, 1.0, 5)
        assert np.allclose(radii, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], atol=1e-15)
        assert np.diff(radii) == pytest.approx([0.2] * 5)

    def test_degenerate_bounds(self):
        radii = _ring_radii(2.0, 2.0, 3)
        assert list(radii) == [2.0, 2.0, 2.0, 2.0]
        assert np.all(np.diff(radii) == 0.0)

    def test_single_region(self):
        radii = _ring_radii(1.0, 4.0, 1)
        assert list(radii) == [1.0, 4.0]

    def test_invalid_inputs(self, small_scenario):
        # the map checks the ring count before it splits any bounds
        bounds = power_bounds(small_scenario, uniform_grid(11))
        with pytest.raises(ValidationError):
            probability_map(bounds, 0)
        for k in (2.5, True):
            with pytest.raises(ValidationError, match="integer"):
                probability_map(bounds, k)

    def test_halving_aligns_exactly(self):
        lo, hi = 0.137, 2.961
        coarse = _ring_radii(lo, hi, 5)
        fine = _ring_radii(lo, hi, 10)
        assert np.array_equal(coarse, fine[0::2])


class TestRegionProbabilities:
    def test_single_region_is_certain(self):
        p = convex_polygon([1 + 0j, 2 + 0j, 2 + 1j, 1 + 1j])
        radii = _ring_radii(*distance_bounds_to_origin(p), 1)
        assert list(region_probabilities(p, radii)) == [1.0]

    def test_offset_square_against_oracle(self):
        p = convex_polygon([1 + 0j, 2 + 0j, 2 + 1j, 1 + 1j])
        radii = _ring_radii(1.0, math.sqrt(5.0), 2)
        probs = region_probabilities(p, radii)
        covered = [disc_convex_area_slab(float(r), p, 16385) for r in radii]
        oracle = np.diff(covered) / covered[-1]
        assert probs == pytest.approx(oracle, abs=1e-3)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_point_region(self):
        p = convex_polygon([0.5 + 0.5j])
        probs = region_probabilities(p, _ring_radii(*distance_bounds_to_origin(p), 4))
        assert list(probs) == [1.0, 0.0, 0.0, 0.0]

    def test_degenerate_segment_region(self):
        p = convex_polygon([1 + 0j, 2 + 0j])
        probs = region_probabilities(p, _ring_radii(1.0, 2.0, 3))
        assert list(probs) == [1.0, 0.0, 0.0]

    def test_negative_ring_area_raises(self, monkeypatch):
        p = convex_polygon([1 + 0j, 2 + 0j, 2 + 1j, 1 + 1j])
        radii = _ring_radii(1.0, math.sqrt(5.0), 3)
        monkeypatch.setattr(
            pia,
            "disc_polygon_areas",
            lambda radii, poly, n_vertices: np.array([[0.0, 0.6, 0.4, 1.0]]),
        )
        with pytest.raises(ValidationError, match="round-off"):
            region_probabilities(p, radii)

    def test_round_off_ring_area_clipped(self, monkeypatch):
        p = convex_polygon([1 + 0j, 2 + 0j, 2 + 1j, 1 + 1j])
        radii = _ring_radii(1.0, math.sqrt(5.0), 3)
        monkeypatch.setattr(
            pia,
            "disc_polygon_areas",
            lambda radii, poly, n_vertices: np.array([[0.0, 0.5, 0.5 - 1e-14, 1.0]]),
        )
        probs = region_probabilities(p, radii)
        assert probs[1] == 0.0
        assert probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_oracle_equivalence_fuzz(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            center = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            p = convex_polygon(random_convex_vertices(rng, int(rng.integers(4, 10)),
                                                      scale=1.2, center=center))
            lo, hi = distance_bounds_to_origin(p)
            k = int(rng.integers(1, 7))
            radii = _ring_radii(lo, hi, k)
            probs = region_probabilities(p, radii)
            covered = [disc_convex_area_slab(float(r), p) for r in radii]
            oracle = np.diff(covered) / covered[-1]
            assert probs == pytest.approx(oracle, abs=1e-3)


def _pmap(scenario, grid, k_regions):
    return probability_map(power_bounds(scenario, grid), k_regions)


def _report(scenario, grid, k_regions):
    bounds = power_bounds(scenario, grid)
    return feature_report(probability_map(bounds, k_regions))


class TestProbabilityMap:
    def test_zero_tolerance_degenerate_convention(self):
        scen = scenario_from_tolerances([(1.0, 0.0)] * 4, 0.0, 0.0, 0.5)
        grid = uniform_grid(21)
        pmap = _pmap(scen, grid, 5)
        assert pmap.degenerate.all()
        assert np.all(pmap.p[0] == 1.0)
        assert np.all(pmap.p[1:] == 0.0)

    def test_rejects_non_integer_ring_count(self, small_scenario):
        bounds = power_bounds(small_scenario, uniform_grid(11))
        for k in (2.5, True):
            with pytest.raises(ValidationError, match="integer"):
                probability_map(bounds, k)

    def test_columns_sum_to_one(self, small_scenario):
        pmap = _pmap(small_scenario, uniform_grid(51), 5)
        assert np.abs(pmap.p.sum(axis=0) - 1.0).max() <= 1e-9
        assert not pmap.degenerate.any()

    def test_refinement_aggregation(self, small_scenario):
        grid = uniform_grid(51)
        p5 = _pmap(small_scenario, grid, 5)
        p10 = _pmap(small_scenario, grid, 10)
        agg = p10.p[0::2] + p10.p[1::2]
        assert np.abs(agg - p5.p).max() <= 1e-9
        assert np.array_equal(p5.ring_radii, p10.ring_radii[:, 0::2])

    def test_region_power_db_matches_radii(self, small_scenario):
        grid = uniform_grid(31)
        pmap = _pmap(small_scenario, grid, 4)
        i = 20
        expected = 20.0 * np.log10(pmap.ring_radii[i]) - 10.0 * math.log10(pmap.bounds.peak_power)
        assert pmap.region_power_db[i] == pytest.approx(expected, abs=1e-12)

    def test_outer_ring_boundaries_are_the_bounds(self, small_scenario):
        # a zero lower bound at the nulls of a zero-tolerance array, -inf on both sides
        zero_tol = scenario_from_tolerances([(1.0, 0.0)] * 4, 0.0, 0.0, 0.5)
        for scenario in (small_scenario, zero_tol):
            pmap = _pmap(scenario, uniform_grid(101), 5)
            bounds = pmap.bounds
            assert np.array_equal(pmap.region_power_db[:, 0], bounds.p_lo_db)
            assert np.array_equal(pmap.region_power_db[:, -1], bounds.p_hi_db)


class TestPaddedRegions:
    """Regions of different vertex counts share one padded array and its blocks."""

    @pytest.mark.parametrize(
        "xi, gamma, at_zero, most", [(0.05, 0.05, 12, 48), (0.05, 0.0, 2, 8)],
        ids=["sectors", "amplitude-only"],
    )
    def test_rows_match_single_directions(self, xi, gamma, at_zero, most):
        # at u = 0 the four sectors are aligned: their sum has the vertex
        # count of one sector, or is a fully collinear segment when the
        # sectors are segments; three blocks of rows put it between others.
        # The rows from u = 0 on are computed and match to the bit; the
        # mirrored rows at u < 0 are conjugate copies and match as sets.
        scen = scenario_from_tolerances([(1.0, 0.0)] * 4, xi, gamma, 0.5)
        grid = uniform_grid(2 * (_BLOCK_EDGES // most) + 1)
        bounds = power_bounds(scen, grid)
        pmap = probability_map(bounds, 5)
        assert bounds.vertices.shape[1] == bounds.n_vertices.max() == most
        assert bounds.n_vertices[len(grid) // 2] == at_zero
        assert bounds.mirrored == len(grid) // 2
        scale = float(bounds.modulus_hi.max())
        for i, u in enumerate(grid.samples.tolist()):
            region, modulus_lo, modulus_hi = direction_region(scen, u)
            n = bounds.n_vertices[i]
            assert n == len(region)
            assert np.all(bounds.vertices[i, n:] == bounds.vertices[i, 0])
            radii = _ring_radii(modulus_lo, modulus_hi, 5)
            expected = region_probabilities(region, radii)
            if i >= bounds.mirrored:
                assert bounds.vertices[i, :n].tobytes() == region.tobytes()
                assert (bounds.modulus_lo[i], bounds.modulus_hi[i]) == (modulus_lo, modulus_hi)
                assert pmap.p[:, i].tobytes() == expected.tobytes()
            else:
                assert boundary_distance(bounds.vertices[i, :n], region) <= 1e-12 * scale
                assert abs(bounds.modulus_lo[i] - modulus_lo) <= 1e-12 * scale
                assert abs(bounds.modulus_hi[i] - modulus_hi) <= 1e-12 * scale
                assert np.abs(pmap.p[:, i] - expected).max() <= 1e-12


class TestMeanProbabilities:
    def test_uniform_map(self):
        grid = uniform_grid(11)
        k = 4
        p = np.full((k, len(grid)), 1.0 / k)
        pmap = ProbabilityMap(
            bounds=SimpleNamespace(grid=grid), k_regions=k, p=p,
            ring_radii=np.tile(np.linspace(0, 1, k + 1), (len(grid), 1)),
            region_power_db=np.zeros((len(grid), k + 1)),
            degenerate=np.zeros(len(grid), dtype=bool),
        )
        assert mean_probabilities(pmap) == pytest.approx([0.25] * 4, abs=1e-15)

    def test_sums_to_one(self, small_scenario):
        pmap = _pmap(small_scenario, uniform_grid(51), 5)
        assert mean_probabilities(pmap).sum() == pytest.approx(1.0, abs=1e-12)

    def test_halved_grid_weighting(self):
        # p_1 is an indicator of u >= 0 on a symmetric grid: its mean is 1/2
        grid = uniform_grid(9)
        p = np.zeros((2, 9))
        p[0] = (grid.samples >= 0).astype(float)
        p[1] = 1.0 - p[0]
        pmap = ProbabilityMap(
            bounds=SimpleNamespace(grid=grid), k_regions=2, p=p,
            ring_radii=np.tile(np.linspace(0, 1, 3), (9, 1)),
            region_power_db=np.zeros((9, 3)),
            degenerate=np.zeros(9, dtype=bool),
        )
        means = mean_probabilities(pmap)
        # trapezoid adds half of the transition cell to the step side
        assert means.sum() == pytest.approx(1.0, abs=1e-15)
        assert means[0] == pytest.approx(0.5 + 0.125 / 2.0, abs=1e-12)


class TestMainlobe:
    def test_finds_first_minima(self, small_scenario):
        from arraytol import nominal_af_curve

        grid = uniform_grid(201)
        power = np.abs(nominal_af_curve(small_scenario, grid)) ** 2
        i_max, left, right = mainlobe_indices(power)
        assert grid.samples[i_max] == pytest.approx(0.0)
        assert left < i_max < right
        # boundaries are local minima
        assert power[left] <= power[left + 1] and power[left] <= power[left - 1]
        assert power[right] <= power[right - 1] and power[right] <= power[right + 1]

    def test_too_coarse_grid_ends_at_the_grid_edges(self, small_scenario):
        from arraytol import nominal_af_curve

        grid = uniform_grid(5)
        power = np.abs(nominal_af_curve(small_scenario, grid)) ** 2
        assert mainlobe_indices(power) == (2, 0, 4)

    @pytest.mark.parametrize("power, expected", [
        ([1.0, 2.0, 3.0], (2, 0, 2)),  # the peak is a grid edge
        ([2.0, 1.0, 3.0, 4.0, 2.0], (3, 1, 4)),  # a minimum on the left only
        ([1.0, 2.0, 2.0, 3.0], (3, 0, 3)),  # a plateau is no minimum
    ])
    def test_mainlobe_ends_at_first_minimum_or_grid_edge(self, power, expected):
        assert mainlobe_indices(np.array(power)) == expected


class TestFeatureReport:
    def test_gamma_tiling_and_probs(self, small_scenario):
        grid = uniform_grid(101)
        rep = _report(small_scenario, grid, 5)
        for k in range(4):
            assert rep.gamma_intervals[k, 1] == rep.gamma_intervals[k + 1, 0]
        assert rep.gamma_intervals[0, 0] == rep.iams_gamma[0]
        assert rep.gamma_intervals[-1, 1] == rep.iams_gamma[1]
        assert rep.gamma_probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert rep.mean_probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert rep.u_max == pytest.approx(0.0)

    def test_even_grid_takes_the_first_of_two_tied_maxima(self, small_scenario):
        # no sample at u = 0: the mirrored nominal peak is tied at -u and u
        grid = uniform_grid(40)
        bounds = power_bounds(small_scenario, grid)
        i = len(grid) // 2 - 1
        assert bounds.nominal_db[i] == bounds.nominal_db[i + 1] == bounds.nominal_db.max()
        rep = feature_report(probability_map(bounds, 5))
        assert rep.u_max == grid.samples[i] == -grid.samples[i + 1]

    def test_sll_coverage_endpoints(self, small_scenario):
        rep = _report(small_scenario, uniform_grid(101), 5)
        assert rep.sll_intervals[0, 0] == rep.iams_sll[0]
        assert rep.sll_intervals[-1, 1] == rep.iams_sll[1]

    def test_sll_intervals_ordered(self, small_scenario):
        rep = _report(small_scenario, uniform_grid(101), 5)
        assert np.all(rep.sll_intervals[:, 0] <= rep.sll_intervals[:, 1])
        # lower endpoints increase with the ring index
        assert np.all(np.diff(rep.sll_intervals[:, 0]) > 0)

    def test_zero_tolerance_collapse(self):
        amps = [0.5, 0.8, 1.0, 1.0, 0.8, 0.5]
        scen = scenario_from_tolerances([(a, 0.0) for a in amps], 0.0, 0.0, 0.5)
        grid = uniform_grid(201)
        rep = _report(scen, grid, 5)
        assert rep.degenerate
        assert rep.iams_gamma[0] == pytest.approx(0.0, abs=1e-12)
        assert rep.iams_gamma[1] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.abs(rep.gamma_intervals) < 1e-12)
        # with no tolerance the bound endpoints meet the nominal sidelobe level
        assert rep.iams_sll[0] == pytest.approx(rep.iams_sll[1], abs=1e-9)
        from arraytol import nominal_af_curve, power_db

        power = np.abs(nominal_af_curve(scen, grid)) ** 2
        db = power_db(power, float(power.max()))
        i_max, left, right = mainlobe_indices(power)
        side = np.ones(len(grid), dtype=bool)
        side[left : right + 1] = False
        assert rep.iams_sll[0] == pytest.approx(float(db[side].max()), abs=1e-9)
