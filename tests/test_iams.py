"""Interval array factor and power-bounds tests."""

import dataclasses
import math

import numpy as np
import pytest

from arraytol import (
    AngularGrid,
    ArrayScenario,
    ExcitationInterval,
    ValidationError,
    interval_af_curve,
    nominal_af_curve,
    power_bounds,
    power_db,
    probability_map,
    scenario_from_tolerances,
    uniform_grid,
)
from arraytol.iams import element_sectors, rounding_allowance

from helpers import (
    boundary_distance,
    contains_point,
    direction_region,
    distance_bounds_to_origin,
    minkowski_sum_many,
    nominal_af,
    normalized_rows,
    polygonize_interval_phasor,
    taylor_taper,
)


def _uniform_scenario(n, xi=0.0, gamma=0.0, spacing=0.5):
    return scenario_from_tolerances([(1.0, 0.0)] * n, xi, gamma, spacing)


def _steered_asymmetric_scenario(n, seed):
    """Taylor taper steered by 30 degrees per element, seeded asymmetric intervals."""
    rng = np.random.default_rng(seed)
    elements = []
    for i, amp in enumerate(taylor_taper(n)):
        amp = float(amp)
        phase = math.radians(30.0 * i)
        elements.append(
            ExcitationInterval(
                nominal_amplitude=amp,
                nominal_phase=phase,
                amplitude_lo=amp * (1.0 - rng.uniform(0.005, 0.02)),
                amplitude_hi=amp * (1.0 + rng.uniform(0.005, 0.02)),
                phase_lo=phase - math.radians(rng.uniform(1.0, 4.0)),
                phase_hi=phase + math.radians(rng.uniform(1.0, 4.0)),
            )
        )
    return ArrayScenario(elements=tuple(elements), spacing=0.5)


class TestNominalAf:
    def test_broadside_pair_sums_coherently(self):
        scen = _uniform_scenario(2)
        assert nominal_af(scen, 0.0) == pytest.approx(2.0 + 0.0j)

    def test_endfire_null(self):
        scen = _uniform_scenario(2)
        assert abs(nominal_af(scen, 1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_tapered_sum_at_broadside(self):
        amps = taylor_taper(16)
        scen = scenario_from_tolerances([(float(a), 0.0) for a in amps], 0.01,
                                        math.radians(3.0), 0.5)
        total = nominal_af(scen, 0.0)
        assert total.imag == pytest.approx(0.0, abs=1e-12)
        assert total.real == pytest.approx(float(amps.sum()))
        # the taper agrees with its published 3-digit values (two elements
        # per printed row, rows summing to 5.569)
        published = [0.365, 0.422, 0.522, 0.646, 0.773, 0.881, 0.960, 1.000]
        assert np.abs(amps[:8] - published).max() < 7e-4
        assert total.real == pytest.approx(2 * 5.569, abs=0.01)

    def test_curve_matches_scalar(self):
        scen = scenario_from_tolerances(
            [(0.7, 0.2), (1.0, -0.1), (0.9, 0.4)], 0.0, 0.0, 0.55
        )
        grid = uniform_grid(21)
        curve = nominal_af_curve(scen, grid)
        for i, u in enumerate(grid.samples):
            assert curve[i] == pytest.approx(nominal_af(scen, float(u)), abs=1e-12)

    def test_rejects_out_of_range_direction(self):
        # the curve takes its directions from a grid, which checks their range
        with pytest.raises(Exception):
            nominal_af_curve(_uniform_scenario(2), AngularGrid([1.5]))


class TestIntervalAf:
    def test_zero_tolerance_collapses_to_nominal(self):
        scen = _uniform_scenario(4)
        for u in (-0.7, 0.0, 0.31):
            region, modulus_lo, modulus_hi = direction_region(scen, u)
            assert len(region) == 1
            assert region[0] == pytest.approx(nominal_af(scen, u), abs=1e-12)
            assert modulus_lo == pytest.approx(modulus_hi)

    @pytest.mark.parametrize("u", [math.nan, math.inf, -1.5])
    def test_rejects_direction_outside_unit_interval(self, u):
        scen = _uniform_scenario(2, xi=0.05, gamma=0.05)
        with pytest.raises(ValidationError, match=r"must lie in \[-1, 1\]"):
            interval_af_curve(scen, AngularGrid([u]))

    def test_single_live_element_is_its_sector(self):
        # second element has a zero-width interval at zero amplitude, so the
        # region is exactly one polygonized sector
        half = math.radians(10.0)
        scen = scenario_from_tolerances([(1.0, 0.0), (0.0, 0.0)], 0.1, half, 0.5)
        m = 8
        _, modulus_lo, modulus_hi = direction_region(scen, 0.0, arc_points=m)
        step = 2.0 * half / m
        assert modulus_hi == pytest.approx(1.1 / math.cos(step / 2.0), rel=1e-12)
        assert modulus_lo == pytest.approx(0.9 * math.cos(half), rel=1e-12)

    def test_region_contains_nominal_fuzz(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            nominals = [(float(rng.uniform(0.1, 1.0)), float(rng.uniform(-1.0, 1.0)))
                        for _ in range(n)]
            scen = scenario_from_tolerances(
                nominals, float(rng.uniform(0.0, 0.1)), float(rng.uniform(0.0, 0.2)), 0.5
            )
            u = float(rng.uniform(-1.0, 1.0))
            region, _, _ = direction_region(scen, u)
            assert contains_point(region, nominal_af(scen, u))

    @pytest.mark.parametrize("name", ["steered64", "taylor16"])
    def test_batched_regions_match_per_direction_sums(self, name):
        # the batched curve rotates one polygon per element; the reference
        # polygonizes every sector at its steered phase and sums each
        # direction on its own.  At u = -0.5 the Taylor sectors' chords are
        # axis-aligned, where the bottom-left anchor rule decides the pick.
        if name == "steered64":
            scen = _steered_asymmetric_scenario(64, seed=3)
        else:
            scen = scenario_from_tolerances(
                [(float(a), 0.0) for a in taylor_taper(16)], 0.01, math.radians(3.0), 0.5
            )
        rng = np.random.default_rng(4)
        us = np.unique(np.concatenate(([-1.0, -0.5, 0.0, 0.5, 1.0], rng.uniform(-1, 1, 20))))
        vertices, n_vertices, modulus_lo, modulus_hi, _, mirrored = interval_af_curve(
            scen, AngularGrid(us), arc_points=8
        )
        assert mirrored == 0  # the random directions are not a mirror grid
        rays = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False))
        for i, u in enumerate(us):
            sectors = []
            for n, el in enumerate(scen.elements):
                psi = 2.0 * math.pi * scen.spacing * n * u
                sectors.append(polygonize_interval_phasor(
                    el.amplitude_lo, el.amplitude_hi, el.phase_lo + psi, el.phase_hi + psi, 8
                ))
            ref_region = minkowski_sum_many(sectors)
            got = vertices[i, : n_vertices[i]]
            assert got.size == len(ref_region)
            # the start vertex may differ by one where an edge angle sits on
            # the 0 / 2*pi fold, so align the rings before comparing
            ref = np.roll(ref_region, -int(np.argmin(np.abs(ref_region - got[0]))))
            assert np.abs(got - ref).max() <= 1e-12
            ref_lo, ref_hi = distance_bounds_to_origin(ref_region)
            assert modulus_lo[i] <= ref_lo and modulus_hi[i] >= ref_hi
            # independent of either sum's anchor rule: the support function
            # of a Minkowski sum is the sum of the operands' support functions
            along = rays.conj()[:, None]
            support = sum(np.max((along * s).real, axis=1) for s in sectors)
            got_support = np.max((along * got).real, axis=1)
            assert np.abs(got_support - support).max() <= 1e-12 * max(1.0, np.abs(got).max())

    def test_modulus_bounds_match_region(self):
        scen = _uniform_scenario(3, xi=0.05, gamma=math.radians(5.0))
        region, modulus_lo, modulus_hi = direction_region(scen, 0.4)
        assert 0.0 <= modulus_lo <= modulus_hi
        assert modulus_hi == pytest.approx(np.abs(region).max())

    def test_modulus_lo_does_not_depend_on_amplitude_scale(self):
        # the origin-inside test must not read a small region's edge cross
        # products as zero: scaled amplitudes scale the bounds, nothing else
        grid = uniform_grid(41)
        lows = {}
        for scale in (1e-4, 1e-2, 1.0, 1e2):
            scen = scenario_from_tolerances([(scale, 0.0)] * 3, 0.01, math.radians(3.0), 0.5)
            modulus_lo = interval_af_curve(scen, grid).modulus_lo
            lows[scale] = modulus_lo / scale
        zeros = np.flatnonzero(lows[1.0] == 0.0)
        assert 0 < zeros.size < len(grid)
        for low in lows.values():
            assert np.array_equal(np.flatnonzero(low == 0.0), zeros)
            assert low == pytest.approx(lows[1.0], rel=1e-12)


class TestPowerBounds:
    def test_zero_tolerance_equals_nominal(self):
        scen = _uniform_scenario(4)
        grid = uniform_grid(41)
        curve = power_bounds(scen, grid)
        nominal_power = np.abs(nominal_af_curve(scen, grid)) ** 2
        assert np.allclose(curve.p_lo, nominal_power, atol=1e-12)
        assert np.allclose(curve.p_hi, nominal_power, atol=1e-12)

    def test_nominal_pattern_is_bracketed(self, small_scenario):
        grid = uniform_grid(101)
        curve = power_bounds(small_scenario, grid)
        nominal_power = np.abs(nominal_af_curve(small_scenario, grid)) ** 2
        assert np.all(curve.p_lo <= nominal_power * (1 + 1e-12) + 1e-15)
        assert np.all(curve.p_hi >= nominal_power * (1 - 1e-12) - 1e-15)

    def test_peak_normalization(self, small_scenario):
        grid = uniform_grid(101)
        curve = power_bounds(small_scenario, grid)
        assert curve.nominal_db.max() == pytest.approx(0.0, abs=1e-12)
        i = int(np.argmax(curve.nominal_db))
        assert curve.p_lo_db[i] <= 0.0 <= curve.p_hi_db[i]

    def test_symmetric_scenario_symmetric_curves(self, small_scenario):
        grid = uniform_grid(81)
        curve = power_bounds(small_scenario, grid)
        scale = curve.p_hi.max()
        assert np.abs(curve.p_lo - curve.p_lo[::-1]).max() <= 1e-9 * scale
        assert np.abs(curve.p_hi - curve.p_hi[::-1]).max() <= 1e-9 * scale

    def test_monotone_tightening_with_arc_doubling(self, small_scenario):
        grid = uniform_grid(41)
        curves = [power_bounds(small_scenario, grid, arc_points=m) for m in (4, 8, 16, 32)]
        for coarse, fine in zip(curves, curves[1:]):
            assert np.all(fine.p_hi <= coarse.p_hi * (1 + 1e-12))
            assert np.all(fine.p_lo >= coarse.p_lo * (1 - 1e-12) - 1e-30)

    def test_wide_phase_tolerance_drives_lower_bound_to_zero(self):
        amps = taylor_taper(16)
        scen = scenario_from_tolerances(
            [(float(a), 0.0) for a in amps], 0.01, math.radians(5.0), 0.5
        )
        curve = power_bounds(scen, uniform_grid(201))
        assert np.any(np.isneginf(curve.p_lo_db))
        assert np.all(np.isfinite(curve.p_hi_db))

    def test_mc_inclusion_fuzz(self):
        rng = np.random.default_rng(99)
        scen = scenario_from_tolerances(
            [(1.0, 0.0), (0.7, 0.3), (0.9, -0.2), (0.6, 0.0)],
            xi=0.05, gamma=math.radians(6.0), spacing=0.5,
        )
        grid = uniform_grid(41)
        curve = power_bounds(scen, grid)
        n = scen.n_elements
        draws = 10_000
        alo = np.array([e.amplitude_lo for e in scen.elements])
        ahi = np.array([e.amplitude_hi for e in scen.elements])
        plo = np.array([e.phase_lo for e in scen.elements])
        phi = np.array([e.phase_hi for e in scen.elements])
        amps = rng.uniform(alo, ahi, (draws, n))
        phases = rng.uniform(plo, phi, (draws, n))
        w = amps * np.exp(1j * phases)
        steering = np.exp(1j * 2 * math.pi * 0.5 * np.outer(np.arange(n), grid.samples))
        power = np.abs(w @ steering) ** 2
        slack = 1e-9 * np.maximum(curve.p_hi, 1e-300)
        assert np.all(power >= curve.p_lo[None, :] - slack)
        assert np.all(power <= curve.p_hi[None, :] + slack)

    def test_far_sector_sum_reaches_its_vertex_sums(self):
        # the bottom chord of element 0's outer arc tilts about 3e-11 rad off
        # horizontal; a sum placed by any rule other than its edge order can
        # slide off its vertex sums, and Monte Carlo draws then leave p_hi
        scen = scenario_from_tolerances(
            [(100.0, -math.pi / 2 - 3e-11), (1.0, 0.0)], 0.01, math.radians(3.0), 0.5
        )
        grid = AngularGrid(np.array([-0.5, 0.0, 0.5]))
        modulus_hi = interval_af_curve(scen, grid).modulus_hi
        sectors, counts = element_sectors(scen)
        for u, hi in zip(grid.samples, modulus_hi):
            a, b = (
                row[:k] * np.exp(1j * math.pi * n * u)
                for n, (row, k) in enumerate(zip(sectors, counts))
            )
            assert hi >= np.abs(a[:, None] + b[None, :]).max()

    @pytest.mark.parametrize("amplitude", [3e-10, 1e-9, 1e-8])
    def test_a_welded_sector_widens_the_bounds(self, amplitude):
        # next to a radial segment of length 0.48, every step of a sector
        # about 1e-9 across is short, so the weld drops the sector from the
        # sum; the bounds must still hold its realizations at both amplitude
        # ends, which lie up to about amplitude * 1e-2 off the segment
        scen = ArrayScenario(
            elements=(
                ExcitationInterval(0.5, 0.0, 0.26, 0.74, 0.0, 0.0),
                ExcitationInterval(
                    amplitude, 0.0, 0.99 * amplitude, 1.01 * amplitude,
                    -math.radians(3.0), math.radians(3.0),
                ),
            ),
            spacing=0.5,
        )
        # -0.3 mirrors 0.3, so its bounds are copied rather than summed
        grid = AngularGrid(np.array([-0.3, 0.0, 0.3]))
        curve = interval_af_curve(scen, grid)
        assert curve.mirrored == 1
        phases = np.linspace(-math.radians(3.0), math.radians(3.0), 101)
        for u, lo, hi in zip(grid.samples, curve.modulus_lo, curve.modulus_hi):
            second = np.outer([0.99, 1.01], amplitude * np.exp(1j * (phases + math.pi * u)))
            moduli = np.abs(np.array([0.26, 0.74])[:, None, None] + second[None])
            assert lo <= moduli.min(), (u, lo - moduli.min())
            assert moduli.max() <= hi, (u, moduli.max() - hi)

    def test_a_narrow_sector_is_not_welded_alone(self):
        # a sector 1e-10 rad wide has steps far below the weld scale; built
        # exactly, its steps reach the sum, whose weld widens the bounds by
        # them, so realizations at its far corner stay inside
        scen = ArrayScenario(
            elements=(
                ExcitationInterval(1.0, 0.0, 0.98, 1.02, 0.0, 1e-10),
                ExcitationInterval(1.0, 0.0, 0.98, 1.02, -0.05, 0.05),
            ),
            spacing=0.5,
        )
        first = _phasors([0.98, 1.02], np.linspace(0.0, 1e-10, 101))
        second = _phasors([0.98, 1.02], np.linspace(-0.05, 0.05, 101))
        _assert_inside(scen, [0.5], np.stack(np.meshgrid(first, second), axis=-1))
        assert element_sectors(scen)[1].tolist() == [12, 12]

    def test_a_rounded_first_edge_does_not_shift_the_sum(self):
        # the narrow sector's arc chords are 2.8e-9 long and head 8.6e-9 rad
        # apart, about what rounding moves their headings by; where rounding
        # sorts the least-heading edge's predecessor after it, a trace
        # anchored at the least-heading edge would move every later vertex
        # by that predecessor's length
        center = -1.3
        scen = ArrayScenario(
            elements=(
                ExcitationInterval(
                    0.65, center, 0.65 * (1 - 5e-8), 0.65 * (1 + 5e-8),
                    center - 1.3e-8, center + 1.3e-8,
                ),
                ExcitationInterval(1.0, 0.0, 0.99, 1.01, 0.0, 0.0),
            ),
            spacing=0.5,
        )
        assert element_sectors(scen, 3)[1].tolist() == [7, 2]
        first = _phasors(
            [0.65 * (1 - 5e-8), 0.65 * (1 + 5e-8)],
            np.linspace(center - 1.3e-8, center + 1.3e-8, 201),
        )
        second = _phasors([0.99, 1.01], [0.0])
        _assert_inside(scen, [0.25], np.stack(np.meshgrid(first, second), axis=-1), 3)

    def test_narrow_sector_fuzz(self):
        # narrow, thin, tiny and zero-width sectors side by side; every
        # realization with amplitudes at their ends, half of them with
        # phases at their ends, lies in the bounds
        rng = np.random.default_rng(7)
        for _ in range(100):
            elements = []
            for _ in range(int(rng.integers(2, 6))):
                amp = 10.0 ** rng.uniform(-9, 0) if rng.random() < 0.3 else rng.uniform(0.2, 1.0)
                width = 10.0 ** rng.uniform(-13, -1) if rng.random() < 0.6 else 0.0
                xi = 10.0 ** rng.uniform(-12, -1) if rng.random() < 0.7 else 0.0
                phase = rng.uniform(-math.pi, math.pi)
                elements.append(ExcitationInterval(
                    amp, phase, amp * (1 - xi), amp * (1 + xi),
                    phase - 0.5 * width, phase + 0.5 * width,
                ))
            scen = ArrayScenario(elements=tuple(elements), spacing=0.5)
            n = scen.n_elements
            lo = np.array([(e.amplitude_lo, e.phase_lo) for e in elements])
            hi = np.array([(e.amplitude_hi, e.phase_hi) for e in elements])
            amps = np.where(rng.random((4000, n)) < 0.5, lo[:, 0], hi[:, 0])
            phases = np.where(rng.random((4000, n)) < 0.5, lo[:, 1], hi[:, 1])
            phases[2000:] = rng.uniform(lo[:, 1], hi[:, 1], (2000, n))
            arc_points = int(rng.integers(2, 9))
            u = np.sort(rng.uniform(-1.0, 1.0, 3))
            _assert_inside(scen, u, amps * np.exp(1j * phases), arc_points)


def _phasors(amplitudes, phases) -> np.ndarray:
    """Every amplitude at every phase, as one flat array of complex excitations."""
    return np.outer(amplitudes, np.exp(1j * np.asarray(phases))).ravel()


def _assert_inside(scen, u, excitations, arc_points=8):
    """The array factor of each row of excitations, at each u, lies in the modulus bounds.

    excitations is (..., N): one complex excitation per element, element n
    steered by 2*pi*spacing*n*u.
    """
    curve = interval_af_curve(scen, AngularGrid(u), arc_points)
    excitations = np.asarray(excitations).reshape(-1, scen.n_elements)
    steering = np.exp(2j * math.pi * scen.spacing * np.outer(np.arange(scen.n_elements), u))
    moduli = np.abs(excitations @ steering)
    below = curve.modulus_lo - moduli.min(axis=0)
    above = moduli.max(axis=0) - curve.modulus_hi
    assert below.max() <= 0.0 and above.max() <= 0.0, (below, above)


def _taylor_scenario(n):
    return scenario_from_tolerances(
        [(float(a), 0.0) for a in taylor_taper(n)], 0.01, math.radians(3.0), 0.5
    )


def _with_element(scen, i, **changes):
    """scen with element i's fields replaced."""
    elements = list(scen.elements)
    elements[i] = dataclasses.replace(elements[i], **changes)
    return dataclasses.replace(scen, elements=tuple(elements))


class TestMirror:
    """On a symmetric scenario and grid the rows at u < 0 are conjugate copies."""

    @staticmethod
    def _assert_mirrored_rows_match_direct(scen, grid, rows, k_regions=5):
        bounds = power_bounds(scen, grid)
        pmap = probability_map(bounds, k_regions)
        assert bounds.mirrored == len(grid) // 2
        assert all(i < bounds.mirrored for i in rows)
        direct = power_bounds(scen, AngularGrid(grid.samples[rows]))
        assert direct.mirrored == 0
        direct_p = probability_map(direct, k_regions).p
        scale = float(bounds.modulus_hi.max())
        for j, i in enumerate(rows):
            n = bounds.n_vertices[i]
            got = bounds.vertices[i, :n]
            assert np.all(bounds.vertices[i, n:] == got[0])
            ref = direct.vertices[j, : direct.n_vertices[j]]
            assert boundary_distance(got, ref) <= 1e-12 * scale
        assert np.abs(bounds.modulus_lo[rows] - direct.modulus_lo).max() <= 1e-12 * scale
        assert np.abs(bounds.modulus_hi[rows] - direct.modulus_hi).max() <= 1e-12 * scale
        assert np.abs(pmap.p[:, rows] - direct_p).max() <= 1e-12
        # the mirrored rows are counter-clockwise convex polygons as they stand
        m = bounds.mirrored
        _, n_vertices = normalized_rows(bounds.vertices[:m])
        assert np.array_equal(n_vertices, bounds.n_vertices[:m])

    def test_every_taylor16_direction(self, taylor16_scenario, grid501):
        self._assert_mirrored_rows_match_direct(taylor16_scenario, grid501, list(range(250)))

    def test_every_40th_row_of_64_elements(self):
        self._assert_mirrored_rows_match_direct(
            _taylor_scenario(64), uniform_grid(401), list(range(0, 200, 40))
        )

    @pytest.mark.parametrize("n_u", [2, 3, 40, 41])
    def test_small_and_even_grids(self, small_scenario, n_u):
        # an even grid has no u = 0 row: every computed row has u > 0
        self._assert_mirrored_rows_match_direct(
            small_scenario, uniform_grid(n_u), list(range(n_u // 2))
        )

    def test_mirrored_rows_copy_their_images(self, small_scenario):
        bounds = power_bounds(small_scenario, uniform_grid(41))
        pmap = probability_map(bounds, 4)
        for values in (bounds.modulus_lo, bounds.modulus_hi, bounds.n_vertices, pmap.degenerate):
            assert np.array_equal(values, values[::-1])
        assert np.array_equal(pmap.p, pmap.p[:, ::-1])
        assert pmap.p.flags.c_contiguous

    def test_nudged_phase_switches_the_mirror_off(self, small_scenario):
        grid = uniform_grid(41)
        el = small_scenario.elements[0]
        nudged = _with_element(small_scenario, 0, phase_hi=math.nextafter(el.phase_hi, 1.0))
        mirrored, direct = power_bounds(small_scenario, grid), power_bounds(nudged, grid)
        assert mirrored.mirrored == 20 and direct.mirrored == 0
        for i, u in enumerate(grid.samples.tolist()):
            region, _, _ = direction_region(nudged, u)
            n = direct.n_vertices[i]
            assert direct.vertices[i, :n].tobytes() == region.tobytes()
        scale = mirrored.modulus_hi.max()
        assert np.abs(direct.modulus_lo - mirrored.modulus_lo).max() <= 1e-12 * scale
        assert np.abs(direct.modulus_hi - mirrored.modulus_hi).max() <= 1e-12 * scale

    def test_nominal_phase_inside_a_symmetric_interval(self, small_scenario):
        # the regions mirror, the nominal pattern does not
        scen = small_scenario
        for i in range(scen.n_elements):
            scen = _with_element(scen, i, nominal_phase=0.01 * (i + 1))
        grid = uniform_grid(41)
        curve = power_bounds(scen, grid)
        assert curve.mirrored == 20
        nominal_power = np.abs(nominal_af_curve(scen, grid)) ** 2
        assert np.array_equal(curve.nominal_power, nominal_power)
        assert np.array_equal(curve.nominal_db, power_db(nominal_power, curve.peak_power))
        assert not np.allclose(curve.nominal_db, curve.nominal_db[::-1], rtol=0.0, atol=1e-6)
        assert np.all(curve.p_lo <= nominal_power * (1 + 1e-12))
        assert np.all(nominal_power <= curve.p_hi * (1 + 1e-12))

    @pytest.mark.parametrize(
        "samples", [np.linspace(-1.0, 1.0, 41), [-0.5, 0.0, 0.25]], ids=["linspace-41", "uneven"]
    )
    def test_custom_grid_takes_the_direct_path(self, small_scenario, samples):
        grid = AngularGrid(samples)
        assert not np.array_equal(grid.samples, -grid.samples[::-1])
        curve = power_bounds(small_scenario, grid)
        assert curve.mirrored == 0
        for i, u in enumerate(grid.samples.tolist()):
            region, modulus_lo, modulus_hi = direction_region(small_scenario, u)
            n = curve.n_vertices[i]
            assert curve.vertices[i, :n].tobytes() == region.tobytes()
            assert (curve.modulus_lo[i], curve.modulus_hi[i]) == (modulus_lo, modulus_hi)

    def test_any_antisymmetric_grid_mirrors(self, small_scenario):
        curve = power_bounds(small_scenario, AngularGrid([-0.5, -0.25, 0.25, 0.5]))
        assert curve.mirrored == 2

    def test_curve_carries_its_polygonization(self, small_scenario):
        curve = power_bounds(small_scenario, uniform_grid(11), arc_points=6)
        assert curve.arc_points == 6
        assert curve.allowance == rounding_allowance(element_sectors(small_scenario, 6)[0])


class TestPowerDb:
    def test_zero_maps_to_neg_inf(self):
        out = power_db(np.array([0.0, 1.0, 100.0]), 100.0)
        assert np.isneginf(out[0])
        assert out[1] == pytest.approx(-20.0)
        assert out[2] == pytest.approx(0.0)

    def test_scalar_roundtrip(self):
        assert power_db(10.0, 100.0) == pytest.approx(-10.0)
