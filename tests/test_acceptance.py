"""Acceptance gate: published-value reproduction, oracle fuzz, hard properties.

Each criterion is one test so the verbose run prints one pass/fail line per
criterion.  Reference values come from the published 16-element test case
(half-wavelength spacing, -25 dB nbar=3 taper, 1% amplitude and 3 degree
phase tolerances) and are reproduced at the stated tolerances.
"""

import math
import time

import numpy as np
import pytest

from arraytol import (
    ValidationError,
    feature_report,
    mean_probabilities,
    power_bounds,
    run_mc,
    scenario_from_tolerances,
    uniform_grid,
)
from arraytol.iams import _ring_radii

from helpers import (
    convex_polygon,
    direction_region,
    disc_convex_area_slab,
    disc_polygon_intersection_area,
    minkowski_sum_area_brute,
    minkowski_sum_many,
    nominal_af,
    polygon_area,
    random_convex_vertices,
    random_triangle_for_case,
    region_probabilities,
    taylor_taper,
)

U0_INDEX = 166  # grid sample at u = -0.336 on the 501-point grid

MEAN_PROBS_K5 = [9.76, 21.59, 26.28, 26.19, 16.18]  # percent
MEAN_PROBS_K10 = [2.84, 6.92, 9.84, 11.25, 12.81, 13.47, 13.51, 12.68, 10.41, 5.77]
U0_PROBS_K5 = [7.46, 19.59, 28.30, 27.41, 17.25]  # percent
U0_BOUNDS_DB = [-54.98, -34.76, -29.17, -25.80, -23.38, -21.49]
U0_P1_K10 = 2.15  # percent
U0_K10_SECOND_BOUND = -39.97  # dB
GAMMA_INTERVAL_DB = (-0.099, 0.087)
SLL_INTERVAL_DB = (-37.08, -20.31)
GAMMA_PROBS = [18.11, 20.35, 20.44, 20.52, 20.58]  # percent
SLL_INTERVALS_DB = [
    (-37.08, -30.25),
    (-30.43, -26.53),
    (-26.71, -23.93),
    (-24.12, -21.93),
    (-22.12, -20.31),
]


def test_criterion_1_mean_probabilities(taylor16_analysis):
    means = 100.0 * taylor16_analysis.means5
    assert means == pytest.approx(MEAN_PROBS_K5, abs=1.0)
    means10 = 100.0 * taylor16_analysis.means10
    assert means10 == pytest.approx(MEAN_PROBS_K10, abs=1.0)
    assert taylor16_analysis.k5_seconds < 120.0
    print(
        f"criterion 1 PASS: mean probabilities {np.round(means, 2)} % "
        f"in {taylor16_analysis.k5_seconds:.1f}s"
    )


def test_criterion_2_single_direction_regions(taylor16_scenario, grid501):
    u0 = float(grid501.samples[U0_INDEX])
    assert u0 == pytest.approx(-0.336, abs=1e-12)
    start = time.perf_counter()
    region, modulus_lo, modulus_hi = direction_region(taylor16_scenario, u0, arc_points=8)
    radii = _ring_radii(modulus_lo, modulus_hi, 5)
    probs = region_probabilities(region, radii)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0

    assert 100.0 * probs == pytest.approx(U0_PROBS_K5, abs=1.5)
    peak = abs(nominal_af(taylor16_scenario, 0.0)) ** 2
    bounds_db = 20.0 * np.log10(radii) - 10.0 * math.log10(peak)
    assert bounds_db == pytest.approx(U0_BOUNDS_DB, abs=0.3)

    radii10 = _ring_radii(modulus_lo, modulus_hi, 10)
    probs10 = region_probabilities(region, radii10)
    assert 100.0 * probs10[0] == pytest.approx(U0_P1_K10, abs=1.5)
    second = 20.0 * math.log10(radii10[1]) - 10.0 * math.log10(peak)
    assert second == pytest.approx(U0_K10_SECOND_BOUND, abs=0.3)
    print(f"criterion 2 PASS: probe probabilities {np.round(100 * probs, 2)} % in {elapsed:.3f}s")


def test_criterion_3_feature_intervals(taylor16_analysis):
    rep = taylor16_analysis.report
    assert rep.iams_gamma == pytest.approx(GAMMA_INTERVAL_DB, abs=0.02)
    assert rep.iams_sll == pytest.approx(SLL_INTERVAL_DB, abs=0.5)
    assert 100.0 * rep.gamma_probs == pytest.approx(GAMMA_PROBS, abs=0.5)
    for k, (lo, hi) in enumerate(SLL_INTERVALS_DB):
        assert rep.sll_intervals[k, 0] == pytest.approx(lo, abs=0.8)
        assert rep.sll_intervals[k, 1] == pytest.approx(hi, abs=0.8)
    print(
        f"criterion 3 PASS: peak interval {np.round(rep.iams_gamma, 4)} dB, "
        f"sidelobe interval {np.round(rep.iams_sll, 2)} dB"
    )


def test_criterion_4_refinement_identity(taylor16_analysis):
    p5 = taylor16_analysis.bounds.p
    p10 = taylor16_analysis.bounds10.p
    agg = p10[0::2] + p10[1::2]
    per_sample = float(np.abs(agg - p5).max())
    assert per_sample <= 1e-9
    m5 = taylor16_analysis.means5
    m10 = taylor16_analysis.means10
    mean_err = float(np.abs((m10[0::2] + m10[1::2]) - m5).max())
    assert mean_err <= 1e-9
    print(f"criterion 4 PASS: refinement error {per_sample:.2e} (per sample), {mean_err:.2e} (means)")


def test_criterion_5_mc_inclusion_and_mode(taylor16_analysis):
    analysis = taylor16_analysis
    report = run_mc(
        analysis.bounds,
        100_000,
        seed=20,
        probe_directions=(float(analysis.grid.samples[U0_INDEX]),),
    )
    slack = 1e-9 * np.maximum(analysis.bounds.p_hi, 1e-300)
    lo_violations = int(np.sum(report.per_u_min < analysis.bounds.p_lo - slack))
    hi_violations = int(np.sum(report.per_u_max > analysis.bounds.p_hi + slack))
    assert lo_violations == 0 and hi_violations == 0

    pia_mode = int(np.argmax(analysis.bounds.p[:, U0_INDEX])) + 1
    mc_mode = int(np.argmax(report.region_frequencies[:, U0_INDEX])) + 1
    assert pia_mode == 3
    assert mc_mode == 3
    print(
        f"criterion 5 PASS: 0 bound violations over {report.n_samples} samples x "
        f"{len(analysis.grid)} directions; probe mode ring {mc_mode}"
    )


class TestCriterion6GeometryOracles:
    def test_circle_triangle_fuzz_all_cases(self):
        rng = np.random.default_rng(2718)
        quotas = {1: 2000, 2: 3000, 3: 3000, 4: 2000}
        worst_rel = 0.0
        for case, count in quotas.items():
            for _ in range(count):
                r = float(rng.uniform(0.1, 2.0))
                verts = random_triangle_for_case(rng, case, r)
                tri_area = disc_polygon_intersection_area(
                    r, _triangle(verts[0], verts[1], verts[2])
                )
                oracle = disc_convex_area_slab(r, verts)
                if case == 1:
                    # exact by construction: full disc or empty
                    assert tri_area in (0.0,) or tri_area == pytest.approx(
                        math.pi * r * r, rel=1e-12
                    )
                if oracle < 1e-3:
                    assert abs(tri_area - oracle) < 1e-13
                else:
                    rel = abs(tri_area - oracle) / oracle
                    worst_rel = max(worst_rel, rel)
                    assert rel < 1e-11
        print(f"criterion 6a PASS: 10000 disc-triangle instances, worst rel err {worst_rel:.2e}")

    def test_minkowski_brute_force_fuzz(self):
        rng = np.random.default_rng(1618)
        for _ in range(1000):
            a = random_convex_vertices(rng, int(rng.integers(3, 9)))
            b = random_convex_vertices(rng, int(rng.integers(3, 9)))
            s = minkowski_sum_many((convex_polygon(a), convex_polygon(b)))
            assert polygon_area(s) == pytest.approx(
                minkowski_sum_area_brute(a, b), rel=1e-9
            )
        print("criterion 6c PASS: 1000 Minkowski sums vs convex-hull brute force")


def _triangle(v1, v2, v3):
    return np.array([complex(v1), complex(v2), complex(v3)])


class TestCriterion7Properties:
    def test_column_stochasticity(self, taylor16_analysis):
        err = float(np.abs(taylor16_analysis.bounds.p.sum(axis=0) - 1.0).max())
        assert err <= 1e-9
        err10 = float(np.abs(taylor16_analysis.bounds10.p.sum(axis=0) - 1.0).max())
        assert err10 <= 1e-9
        print(f"criterion 7a PASS: column sums within {max(err, err10):.2e}")

    def test_gamma_tiling_exact(self, taylor16_analysis):
        rep = taylor16_analysis.report
        for k in range(rep.k_regions - 1):
            assert rep.gamma_intervals[k, 1] == rep.gamma_intervals[k + 1, 0]
        assert rep.gamma_intervals[0, 0] == rep.iams_gamma[0]
        assert rep.gamma_intervals[-1, 1] == rep.iams_gamma[1]
        print("criterion 7b PASS: peak intervals tile the bound exactly")

    def test_sll_endpoint_coincidence(self, taylor16_analysis):
        rep = taylor16_analysis.report
        assert rep.sll_intervals[0, 0] == rep.iams_sll[0]
        assert rep.sll_intervals[-1, 1] == rep.iams_sll[1]
        print("criterion 7c PASS: sidelobe intervals flush with the overall bounds")

    def test_pattern_symmetry(self, taylor16_analysis):
        bounds = taylor16_analysis.bounds
        scale = float(bounds.p_hi.max())
        lo_err = float(np.abs(bounds.p_lo - bounds.p_lo[::-1]).max()) / scale
        hi_err = float(np.abs(bounds.p_hi - bounds.p_hi[::-1]).max()) / scale
        assert lo_err <= 1e-9 and hi_err <= 1e-9
        print(f"criterion 7d PASS: pattern symmetry within {max(lo_err, hi_err):.2e}")

    def test_zero_tolerance_collapse(self, taylor16_scenario):
        collapsed = scenario_from_tolerances(
            [(e.nominal_amplitude, e.nominal_phase) for e in taylor16_scenario.elements],
            xi=0.0,
            gamma=0.0,
            spacing=taylor16_scenario.spacing,
        )
        grid = uniform_grid(201)
        bounds = power_bounds(collapsed, grid, k_regions=5)
        nominal_power = bounds.nominal_power
        assert np.allclose(bounds.p_lo, nominal_power, rtol=0.0, atol=1e-9 * bounds.peak_power)
        assert np.allclose(bounds.p_hi, nominal_power, rtol=0.0, atol=1e-9 * bounds.peak_power)
        assert bounds.degenerate.all()
        assert np.all(bounds.p[0] == 1.0)
        rep = feature_report(bounds)
        assert rep.degenerate
        assert np.all(np.abs(rep.gamma_intervals) < 1e-9)
        # the collapsed bound meets the taper's realized sidelobe level
        assert rep.iams_sll[0] == pytest.approx(rep.iams_sll[1], abs=1e-9)
        assert rep.iams_sll[0] == pytest.approx(-25.0, abs=0.5)
        print("criterion 7e PASS: zero-tolerance collapse onto the nominal pattern")


class TestSmokeSweeps:
    @pytest.mark.parametrize("gamma_deg", [1.0, 5.0, 10.0])
    def test_phase_tolerance_sweep(self, gamma_deg):
        amps = taylor_taper(16)
        scen = scenario_from_tolerances(
            [(float(a), 0.0) for a in amps], 0.01, math.radians(gamma_deg), 0.5
        )
        grid = uniform_grid(151)
        bounds = power_bounds(scen, grid, k_regions=5)
        rep = feature_report(bounds)

        assert np.abs(bounds.p.sum(axis=0) - 1.0).max() <= 1e-9
        assert mean_probabilities(bounds).sum() == pytest.approx(1.0, abs=1e-9)
        for k in range(4):
            assert rep.gamma_intervals[k, 1] == rep.gamma_intervals[k + 1, 0]
        assert rep.sll_intervals[0, 0] == rep.iams_sll[0]
        assert rep.sll_intervals[-1, 1] == rep.iams_sll[1]
        scale = float(bounds.p_hi.max())
        assert np.abs(bounds.p_lo - bounds.p_lo[::-1]).max() <= 1e-9 * scale
        assert np.abs(bounds.p_hi - bounds.p_hi[::-1]).max() <= 1e-9 * scale
        if gamma_deg >= 5.0:
            # wide phase errors swallow the origin at every sidelobe
            # direction, so the sidelobe interval starts at the sentinel
            assert np.any(np.isneginf(bounds.p_lo_db))
            assert np.isneginf(rep.iams_sll[0])
        else:
            # narrow errors: only deep nulls reach zero, so the highest
            # sidelobe lower bound stays finite
            assert np.isfinite(rep.iams_sll[0])

    @pytest.mark.parametrize("n_elements", [8, 32, 64])
    def test_array_size_sweep(self, n_elements):
        amps = taylor_taper(n_elements)
        scen = scenario_from_tolerances(
            [(float(a), 0.0) for a in amps], 0.01, math.radians(3.0), 0.5
        )
        grid = uniform_grid(101)
        bounds = power_bounds(scen, grid, arc_points=6, k_regions=5)
        rep = feature_report(bounds)

        assert np.abs(bounds.p.sum(axis=0) - 1.0).max() <= 1e-9
        assert mean_probabilities(bounds).sum() == pytest.approx(1.0, abs=1e-9)
        for k in range(4):
            assert rep.gamma_intervals[k, 1] == rep.gamma_intervals[k + 1, 0]
        assert rep.sll_intervals[0, 0] == rep.iams_sll[0]
        assert rep.sll_intervals[-1, 1] == rep.iams_sll[1]
        scale = float(bounds.p_hi.max())
        assert np.abs(bounds.p_lo - bounds.p_lo[::-1]).max() <= 1e-9 * scale
        assert np.abs(bounds.p_hi - bounds.p_hi[::-1]).max() <= 1e-9 * scale
