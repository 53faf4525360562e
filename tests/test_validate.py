"""Tests of the validate module: its independent area oracle and its verdicts."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from arraytol import (
    AngularGrid,
    ExcitationInterval,
    power_bounds,
    scenario_from_config,
    scenario_from_tolerances,
    uniform_grid,
)
from arraytol import iams, validate
from arraytol.cli import main
from arraytol.geometry import disc_polygon_areas
from arraytol.validate import (
    _region_sink,
    _symmetry_check,
    disc_polygon_area_exact,
    run_validation,
)

from helpers import (
    AWKWARD,
    SMOKE,
    disc_convex_area_slab,
    random_convex_vertices,
    workload_config,
)


def _chain(scen):
    """The 4-ring curve of scen on 41 samples and the regions run_validation keeps from its pass.

    Rows 6, 13, 20, 27 and 34: the area oracle's rows of a 41-sample grid
    and their mirror partners, kept through the curve's own pass.
    """
    regions, sink = _region_sink((6, 13, 20, 27, 34))
    return power_bounds(scen, uniform_grid(41), k_regions=4, sink=sink), regions


def _validate(tmp_path, capsys, config, *args):
    """The validate command's exit code and its report lines by check name."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code = main(["validate", "--config", str(path), "--mc-samples", "200", *args])
    return code, {line.split()[1]: line for line in capsys.readouterr().out.splitlines()}


class TestAreaQuadrature:
    """The exact area oracle, disc_polygon_area_exact, against the kernel and the test slabs."""

    @pytest.mark.parametrize("start", range(4))
    def test_rectangle_inside_the_disc_at_every_start(self, start):
        # vertical edges at both x extremes: the end slabs must see the
        # whole slice whichever vertex the ring starts at
        rect = np.roll([-0.3 - 0.2j, 0.4 - 0.2j, 0.4 + 0.5j, -0.3 + 0.5j], start)
        areas = disc_polygon_area_exact([1.0, 2.0], rect)
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
            areas = disc_polygon_area_exact(radii, p)
            exact = disc_polygon_areas(radii[None], p[None], [len(p)])[0]
            slab = [disc_convex_area_slab(r, p) for r in radii.tolist()]
            tol = 1e-13 * exact[-1]
            assert areas == pytest.approx(exact, rel=1e-13, abs=tol)
            assert areas == pytest.approx(slab, rel=1e-13, abs=tol)

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
        areas = disc_polygon_area_exact(radii, vertices)
        assert areas.shape == (len(radii),)
        assert np.all(areas == 0.0)


    def test_peak_does_not_grow_with_radii(self):
        vertices = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)) + 0.3

        def peak(n_radii):
            radii = np.linspace(0.0, 1.5, n_radii)
            tracemalloc.start()
            try:
                disc_polygon_area_exact(radii, vertices)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert abs(peak(41) - peak(6)) <= 64 << 10


class TestAreaOracleGate:
    """The area oracle's gate: each row's rounding bar, 64 n eps P R / A."""

    def test_fails_on_one_ring_area_off_by_a_millionth(self, tmp_path, capsys, monkeypatch):
        code, checks = _validate(tmp_path, capsys, SMOKE)
        assert code == 0 and checks["area-oracle-spot-check"].startswith("PASS")
        # the smoke curve's pass sums its rows from u = 0 on, so each
        # ring-area call's first row is u = 0, the oracle direction n_u // 2;
        # the call takes the K + 1 radii, so column 1 is the first inner
        # disc; a 1e-6 relative change of its area moves the ring
        # probabilities by about 1e-7, which a fixed 1e-3 gate passes
        areas = iams.disc_polygon_areas

        def scaled(*args):
            covered = areas(*args)
            covered[0, 1] *= 1.0 + 1e-6
            return covered

        monkeypatch.setattr(iams, "disc_polygon_areas", scaled)
        code, checks = _validate(tmp_path, capsys, SMOKE)
        assert code == 1 and checks["area-oracle-spot-check"].startswith("FAIL")

    @pytest.mark.parametrize("n_u", [2, 3, 7, 40, 41])
    @pytest.mark.parametrize("width_deg", [1e-9, 1e-10, 1e-11, 1e-12])
    def test_passes_on_narrow_phase_intervals(self, tmp_path, capsys, width_deg, n_u):
        """The narrow pattern (phases within 1e-9 deg of nominal) and its narrower twins.

        At u = +-1 every sector is a radial segment, and the regions there
        are slivers whose ring probabilities rounding moves by up to about
        6e-6 (width 1e-12 deg).  The gate grows with each region's P R / A,
        so they pass where a fixed 1e-9 gate would fail them.  Only this
        check is asserted: validate still fails pattern-symmetry on the
        narrow pattern at n_u = 2 to 5, since the weld moves those slivers'
        boundaries by about their width (the strict xfails of
        test_cli.TestAwkwardPatterns).
        """
        elements = [dict(e, phase_lo_deg=-width_deg, phase_hi_deg=width_deg)
                    for e in SMOKE["elements"]]
        _, checks = _validate(tmp_path, capsys, SMOKE | {"elements": elements}, "--nu", str(n_u))
        assert checks["area-oracle-spot-check"].startswith("PASS")

    def test_no_region_with_area_is_not_applicable(self, tmp_path, capsys):
        # zero tolerances: every region is a point, so no oracle row is integrated
        code, checks = _validate(tmp_path, capsys, AWKWARD["zero-tol"])
        status, _, detail = checks["area-oracle-spot-check"].split(None, 2)
        assert code == 0 and status == "PASS"
        assert detail == "not applicable (no oracle direction's region has area)"

    def test_a_partly_degenerate_pattern_reports_its_error(self, tmp_path, capsys):
        # amp-only at n_u = 41: 3 of the 4 oracle rows have area
        code, checks = _validate(tmp_path, capsys, AWKWARD["amp-only"], "--nu", "41")
        status, _, detail = checks["area-oracle-spot-check"].split(None, 2)
        assert code == 0 and status == "PASS"
        assert detail.startswith("max |p_k - exact oracle| = ")


class TestFeatureIntervalChecks:
    """The peak and sidelobe interval checks read the curve's own bounds, not the report's."""

    def test_fail_on_a_map_whose_outer_radius_is_one_ulp_out(self, tmp_path, capsys, monkeypatch):
        code, checks = _validate(tmp_path, capsys, SMOKE)
        assert code == 0
        radii = iams.PowerBoundsCurve.ring_radii.fget

        def moved(curve):
            out = radii(curve)
            out[..., -1] = np.nextafter(out[..., -1], np.inf)
            return out

        # the curve's ring boundaries move, the pass's modulus bounds do not
        monkeypatch.setattr(iams.PowerBoundsCurve, "ring_radii", property(moved))
        code, checks = _validate(tmp_path, capsys, SMOKE)
        failed = [name for name, line in checks.items() if line.startswith("FAIL")]
        assert code == 1 and failed == ["gamma-interval-tiling", "sll-endpoint-coverage"]

    @pytest.mark.parametrize("config", [SMOKE, AWKWARD["steered-60"]], ids=["smoke", "steered-60"])
    def test_fail_on_ring_radii_spaced_by_the_square_of_k(
        self, tmp_path, capsys, monkeypatch, config
    ):
        def squared(modulus_lo, modulus_hi, k_regions):
            """Radii at lo + (hi - lo) * (k / K)**2, the outer ones the bounds bit for bit."""
            lo, hi = np.asarray(modulus_lo)[..., None], np.asarray(modulus_hi)[..., None]
            radii = lo + (hi - lo) * (np.arange(k_regions + 1) / k_regions) ** 2
            radii[..., :1], radii[..., -1:] = lo, hi
            return radii

        # the pass's ring areas and the curve's ring boundaries move together,
        # so only the spacing check sees it
        monkeypatch.setattr(iams, "_ring_radii", squared)
        code, checks = _validate(tmp_path, capsys, config)
        failed = [name for name, line in checks.items() if line.startswith("FAIL")]
        assert code == 1 and failed == ["gamma-interval-tiling"]


class TestAmplitudeScale:
    @staticmethod
    def _scenario(scale):
        return scenario_from_tolerances([(scale, 0.0)] * 3, 0.01, math.radians(3.0), 0.5)

    @pytest.mark.parametrize("scale", [1e-12, 1e-9, 3e-8, 1.0, 1e6])
    def test_regions_and_verdicts_do_not_depend_on_scale(self, scale):
        # the geometry tolerances are relative: scaling every amplitude
        # scales the regions and leaves their vertices and rings alone
        grid = uniform_grid(41)
        ref, scaled = (power_bounds(self._scenario(s), grid, k_regions=3) for s in (1.0, scale))
        assert np.array_equal(scaled.n_vertices, ref.n_vertices)
        assert np.array_equal(scaled.degenerate, ref.degenerate)
        results = run_validation(self._scenario(scale), grid, 3, 5000)
        assert [r.name for r in results if not r.passed] == []


class TestSubGrids:
    """Library grids that are not uniform_grid: parts of [-1, 1] and a single sample."""

    @pytest.mark.parametrize("samples", [
        np.linspace(-0.5, 0.5, 101), np.linspace(0.0, 1.0, 101), np.array([0.0])
    ], ids=["centred", "one-sided", "one-sample"])
    def test_taylor16_passes_every_check(self, samples):
        cfg = workload_config("taylor16")
        results = run_validation(scenario_from_config(cfg), AngularGrid(samples),
                                 cfg["k_regions"], 2000, arc_points=cfg["arc_points"])
        assert [r.name for r in results if not r.passed] == []


class TestRingCount:
    def test_each_pass_takes_the_k_plus_one_radii_of_its_rings(self, monkeypatch):
        # one ring count per pass: no pass takes a second count's radii
        # beside the K + 1 boundaries of its K rings
        scen = scenario_from_tolerances([(1.0, 0.0)] * 6, 0.02, math.radians(4.0), 0.5)
        grid, k_regions, calls, passes = uniform_grid(41), 4, [], []
        areas, curve = iams.disc_polygon_areas, iams.interval_af_curve

        def spied(radii, vertices, n_vertices):
            calls.append((len(passes), radii.shape, len(n_vertices)))
            return areas(radii, vertices, n_vertices)

        def counted(*args, **kwargs):
            passes.append(args[1])
            return curve(*args, **kwargs)

        monkeypatch.setattr(iams, "disc_polygon_areas", spied)
        for module in (iams, validate):  # power_bounds' binding, and the direct rows'
            monkeypatch.setattr(module, "interval_af_curve", counted)
        assert [r.name for r in run_validation(scen, grid, k_regions, 500) if not r.passed] == []
        # the run's pass, the direct mirrored rows and the zero-tolerance collapse
        assert len(passes) == 3 and passes[0] is grid
        main = [(shape, rows) for index, shape, rows in calls if index == 1]
        assert sum(rows for _, rows in main) == len(grid) - len(grid) // 2  # the summed rows
        assert all(shape == (rows, k_regions + 1) for _, shape, rows in calls)


class TestPatternSymmetry:
    """The check sums some mirrored rows directly and compares them with the copies."""

    @staticmethod
    def _symmetric():
        return scenario_from_tolerances(
            [(a, 0.0) for a in (0.5, 0.8, 1.0, 1.0, 0.8, 0.5)], 0.02, math.radians(4.0), 0.5
        )

    def test_passes_on_the_copies(self):
        result = _symmetry_check(*_chain(self._symmetric()))
        assert result.passed
        assert result.detail.startswith("2 mirrored directions summed directly")

    @pytest.mark.parametrize("row", [6, 13])
    def test_fails_on_a_wrong_mirrored_row(self, row):
        # rows 6 and 13 are the mirrored oracle directions of a 41-sample grid
        bounds, regions = _chain(self._symmetric())
        p = bounds.p.copy()
        p[:, row] = p[::-1, row]
        rings = (p, bounds.degenerate)
        assert not _symmetry_check(dataclasses.replace(bounds, rings=rings), regions).passed
        hi = bounds.modulus_hi.copy()
        hi[row] *= 1.0 + 1e-6
        assert not _symmetry_check(dataclasses.replace(bounds, modulus_hi=hi), regions).passed

    def test_fails_on_images_that_are_not_conjugates(self, monkeypatch):
        # the curve pass's images as the region at u in the image order, without
        # the conjugation: same moduli, vertex counts and areas as the region at -u
        image = iams.mirror_image
        monkeypatch.setattr(iams, "mirror_image", lambda *a: np.conjugate(image(*a)))
        assert not _symmetry_check(*_chain(self._symmetric())).passed

    def test_not_applicable_without_mirrored_rows(self):
        scen = self._symmetric()
        elements = list(scen.elements)
        elements[2] = dataclasses.replace(elements[2], phase_hi=elements[2].phase_hi + 1e-9)
        nudged = dataclasses.replace(scen, elements=tuple(elements))
        result = _symmetry_check(*_chain(nudged))
        assert result.passed and result.detail == "not applicable (no mirrored rows)"

    def test_collapse_reuses_the_curve_allowance(self, monkeypatch):
        # two polygonizations, the run's curve and the collapsed scenario's:
        # the direct rows of a mirrored scenario sum the curve's own sectors
        el = ExcitationInterval(1.0, 0.3, 0.99, 1.01, 0.25, 0.35)
        offset = dataclasses.replace(self._symmetric(), elements=(el,) * 4)
        made, summed = [], []
        sectors, direct = iams.element_sectors, validate.interval_af_curve
        monkeypatch.setattr(iams, "element_sectors",
                            lambda *a: made.append(sectors(*a)) or made[-1])
        monkeypatch.setattr(validate, "interval_af_curve",
                            lambda *a: summed.append(a[2]) or direct(*a))
        for scen, n_direct in ((offset, 0), (self._symmetric(), 1)):
            made.clear()
            summed.clear()
            assert [r.name for r in run_validation(scen, uniform_grid(41), 4, 500)
                    if not r.passed] == []
            assert len(made) == 2
            assert len(summed) == n_direct and all(s is made[0] for s in summed)
