"""Input-model tests: excitation intervals, scenarios, grids, config parsing."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arraytol import (
    AngularGrid,
    ConfigError,
    ExcitationInterval,
    ValidationError,
    scenario_from_config,
    scenario_from_tolerances,
    uniform_grid,
)
from arraytol.model import load_config


class TestScenarioFromTolerances:
    def test_unit_amplitude_row(self):
        scen = scenario_from_tolerances(
            [(1.0, 0.0), (1.0, 0.0)], xi=0.01, gamma=math.radians(3.0), spacing=0.5
        )
        el = scen.elements[0]
        assert el.amplitude_lo == pytest.approx(0.99)
        assert el.amplitude_hi == pytest.approx(1.01)
        assert el.phase_lo == pytest.approx(-math.radians(3.0))
        assert el.phase_hi == pytest.approx(math.radians(3.0))

    def test_zero_tolerance_degenerate(self):
        scen = scenario_from_tolerances([(0.5, 0.0), (0.5, 0.0)], xi=0.0, gamma=0.0, spacing=0.5)
        el = scen.elements[0]
        assert el.amplitude_lo == el.amplitude_hi == 0.5
        assert el.phase_lo == el.phase_hi == 0.0

    def test_exact_endpoint_arithmetic(self):
        scen = scenario_from_tolerances(
            [(0.365, 0.0), (0.365, 0.0)], xi=0.01, gamma=math.radians(3.0), spacing=0.5
        )
        assert scen.elements[0].amplitude_lo == pytest.approx(0.36135, abs=1e-12)
        assert scen.elements[0].amplitude_hi == pytest.approx(0.36865, abs=1e-12)

    def test_roundtrip_zero_tolerance_equals_nominals(self):
        amps = [0.3, 0.9, 1.0]
        scen = scenario_from_tolerances([(a, 0.1) for a in amps], 0.0, 0.0, 0.5)
        for el, a in zip(scen.elements, amps):
            assert el.amplitude_lo == a and el.amplitude_hi == a
            assert el.phase_lo == 0.1 and el.phase_hi == 0.1

    @settings(max_examples=100, deadline=None)
    @given(
        amp=st.floats(min_value=1e-3, max_value=10.0),
        xi=st.floats(min_value=1e-6, max_value=0.4),
    )
    def test_width_scales_linearly_with_xi(self, amp, xi):
        narrow = scenario_from_tolerances([(amp, 0.0)] * 2, xi, 0.0, 0.5).elements[0]
        wide = scenario_from_tolerances([(amp, 0.0)] * 2, 2.0 * xi, 0.0, 0.5).elements[0]
        w1 = narrow.amplitude_hi - narrow.amplitude_lo
        w2 = wide.amplitude_hi - wide.amplitude_lo
        assert w2 == pytest.approx(2.0 * w1, rel=1e-12)

    def test_negative_amplitude_names_element(self):
        with pytest.raises(ValidationError, match="element 2"):
            scenario_from_tolerances([(1.0, 0.0), (-0.1, 0.0)], 0.01, 0.0, 0.5)

    def test_out_of_range_tolerances(self):
        with pytest.raises(ValidationError):
            scenario_from_tolerances([(1.0, 0.0)] * 2, xi=1.0, gamma=0.0, spacing=0.5)
        with pytest.raises(ValidationError):
            scenario_from_tolerances([(1.0, 0.0)] * 2, xi=0.0, gamma=math.pi / 2, spacing=0.5)
        with pytest.raises(ValidationError):
            scenario_from_tolerances([(1.0, 0.0)] * 2, xi=-0.1, gamma=0.0, spacing=0.5)

    def test_scenario_invariants(self):
        with pytest.raises(ValidationError):
            scenario_from_tolerances([(1.0, 0.0)], 0.0, 0.0, 0.5)  # too few elements
        with pytest.raises(ValidationError):
            scenario_from_tolerances([(1.0, 0.0)] * 2, 0.0, 0.0, 0.0)  # bad spacing


class TestExcitationInterval:
    def test_rejects_unsorted_amplitudes(self):
        with pytest.raises(ValidationError):
            ExcitationInterval(1.0, 0.0, 1.2, 1.3, 0.0, 0.0)

    def test_rejects_phase_outside_interval(self):
        with pytest.raises(ValidationError):
            ExcitationInterval(1.0, 0.5, 1.0, 1.0, -0.1, 0.1)

    def test_rejects_wide_phase_window(self):
        with pytest.raises(ValidationError):
            ExcitationInterval(1.0, 0.0, 1.0, 1.0, -math.pi / 2, math.pi / 2)

    @pytest.mark.parametrize("end", range(4))
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_endpoints(self, end, bad):
        ends = [0.9, 1.1, -0.1, 0.1]
        ends[end] = bad
        with pytest.raises(ValidationError, match="finite"):
            ExcitationInterval(1.0, 0.0, *ends)

    def test_nominal_phasor(self):
        el = ExcitationInterval(2.0, math.pi / 2, 2.0, 2.0, math.pi / 2, math.pi / 2)
        assert el.nominal == pytest.approx(2j)


class TestUniformGrid:
    def test_three_samples(self):
        g = uniform_grid(3)
        assert list(g.samples) == [-1.0, 0.0, 1.0]

    def test_two_samples(self):
        assert list(uniform_grid(2).samples) == [-1.0, 1.0]

    def test_501_sample_step(self):
        g = uniform_grid(501)
        assert len(g) == 501
        assert np.allclose(np.diff(g.samples), 0.004, atol=1e-15)
        assert g.samples[0] == -1.0 and g.samples[-1] == 1.0

    @pytest.mark.parametrize("n_samples", [2, 3, 40, 41, 101, 501, 2001])
    def test_antisymmetric_and_within_one_ulp_of_linspace(self, n_samples):
        u = uniform_grid(n_samples).samples
        assert np.array_equal(u, -u[::-1])
        assert np.all(np.diff(u) > 0.0)
        assert u[0] == -1.0 and u[-1] == 1.0
        assert np.abs(u - np.linspace(-1.0, 1.0, n_samples)).max() <= np.spacing(1.0)
        # each sample is the double nearest to -1 + 2k / (n - 1)
        for k, x in enumerate(u.tolist()):
            exact = Fraction(2 * k - (n_samples - 1), n_samples - 1)
            assert abs(Fraction(x) - exact) <= Fraction(np.spacing(abs(x))) / 2

    @pytest.mark.parametrize("n_samples", [1, 2.5, 3.0])
    def test_too_few_samples(self, n_samples):
        with pytest.raises(ValidationError):
            uniform_grid(n_samples)

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            AngularGrid(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValidationError):
            AngularGrid(np.array([-1.5, 0.0]))
        with pytest.raises(ValidationError):
            AngularGrid(np.array([0.0, 1.1]))

    @pytest.mark.parametrize("samples", [np.zeros((2, 2)), [], np.float64(0.5)])
    def test_grid_rejects_samples_that_are_not_a_non_empty_vector(self, samples):
        with pytest.raises(ValidationError, match="grid samples must be a 1-D array"):
            AngularGrid(samples)

    @pytest.mark.parametrize(
        "samples", [[-0.5, math.nan], [math.nan, 0.5], [math.nan], [0.0, math.inf], [-math.inf]]
    )
    def test_grid_rejects_non_finite_samples(self, samples):
        # NaN fails every comparison, so an ordering test alone would let it in
        with pytest.raises(ValidationError):
            AngularGrid(np.array(samples))


def _base_config():
    return {
        "spacing_wavelengths": 0.5,
        "elements": [
            {"amplitude": 1.0, "phase_deg": 0.0},
            {"amplitude": 0.8, "phase_deg": 10.0},
        ],
        "xi_percent": 1.0,
        "gamma_deg": 3.0,
        "k_regions": 5,
        "n_u": 101,
        "arc_points": 8,
    }


class TestConfigParsing:
    def test_symmetric_tolerances_applied(self):
        scen = scenario_from_config(_base_config())
        assert scen.spacing == 0.5
        el = scen.elements[0]
        assert el.amplitude_lo == pytest.approx(0.99)
        assert el.amplitude_hi == pytest.approx(1.01)
        assert scen.elements[1].nominal_phase == pytest.approx(math.radians(10.0))

    def test_explicit_endpoints_override(self):
        cfg = _base_config()
        cfg["elements"][0].update(
            amplitude_lo=0.95, amplitude_hi=1.02, phase_lo_deg=-5.0, phase_hi_deg=1.0
        )
        scen = scenario_from_config(cfg)
        el = scen.elements[0]
        assert el.amplitude_lo == 0.95 and el.amplitude_hi == 1.02
        assert el.phase_lo == pytest.approx(math.radians(-5.0))
        assert el.phase_hi == pytest.approx(math.radians(1.0))
        # second element still uses the shared tolerances
        assert scen.elements[1].amplitude_lo == pytest.approx(0.8 * 0.99)

    def test_half_endpoint_pair_rejected(self):
        cfg = _base_config()
        cfg["elements"][1]["amplitude_lo"] = 0.7
        with pytest.raises(ConfigError, match="amplitude_hi"):
            scenario_from_config(cfg)

    def test_missing_field_is_named(self):
        cfg = _base_config()
        del cfg["spacing_wavelengths"]
        with pytest.raises(ConfigError, match="spacing_wavelengths"):
            scenario_from_config(cfg)

    def test_bad_element_names_index(self):
        cfg = _base_config()
        cfg["elements"][1]["amplitude"] = -2.0
        with pytest.raises(ConfigError, match=r"elements\[2\]"):
            scenario_from_config(cfg)

    def test_xi_percent_range(self):
        cfg = _base_config()
        cfg["xi_percent"] = 120.0
        with pytest.raises(ConfigError, match="xi_percent"):
            scenario_from_config(cfg)

    def test_load_config_errors(self, tmp_path):
        missing = tmp_path / "none.json"
        with pytest.raises(ConfigError):
            load_config(str(missing))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(bad))
        top = tmp_path / "top.json"
        top.write_text(json.dumps([1, 2]))
        with pytest.raises(ConfigError):
            load_config(str(top))
