"""Monte Carlo oracle tests: determinism, inclusion, ring frequencies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from arraytol import (
    ArrayScenario,
    ExcitationInterval,
    nominal_af_curve,
    power_bounds,
    probability_map,
    run_mc,
    sample_realization,
    sample_stream,
    scenario_from_tolerances,
    uniform_grid,
)
from arraytol import montecarlo
from arraytol.errors import ValidationError
from arraytol.montecarlo import _excitations, _tolerance_box, philox_uniforms


def _scenario(xi=0.02, gamma=math.radians(4.0)):
    amps = [0.5, 0.8, 1.0, 1.0, 0.8, 0.5]
    return scenario_from_tolerances([(a, 0.0) for a in amps], xi, gamma, 0.5)


def _pmap(scenario, grid, k_regions):
    return probability_map(power_bounds(scenario, grid), k_regions)


class TestSampleRealization:
    def test_zero_tolerance_gives_nominals(self):
        scen = _scenario(0.0, 0.0)
        w = sample_realization(scen, sample_stream(0, 0))
        expected = np.array([e.nominal for e in scen.elements])
        assert np.allclose(w, expected, atol=0.0)

    def test_membership_is_exact(self):
        scen = _scenario()
        for i in range(200):
            w = sample_realization(scen, sample_stream(3, i))
            amps = np.abs(w)
            phases = np.angle(w)
            for e, a, b in zip(scen.elements, amps, phases):
                assert e.amplitude_lo - 1e-12 <= a <= e.amplitude_hi + 1e-12
                assert e.phase_lo - 1e-12 <= b <= e.phase_hi + 1e-12

    def test_uniform_mean_within_three_sigma(self):
        scen = _scenario()
        n = 20_000
        draws = np.array([
            np.abs(sample_realization(scen, sample_stream(11, i))[0]) for i in range(n)
        ])
        e0 = scen.elements[0]
        mean = 0.5 * (e0.amplitude_lo + e0.amplitude_hi)
        width = e0.amplitude_hi - e0.amplitude_lo
        sigma = width / math.sqrt(12.0 * n)
        assert abs(draws.mean() - mean) <= 3.0 * sigma

    def test_streams_differ_by_index_and_repeat(self):
        scen = _scenario()
        a = sample_realization(scen, sample_stream(5, 0))
        b = sample_realization(scen, sample_stream(5, 1))
        c = sample_realization(scen, sample_stream(5, 0))
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)


class TestPhiloxUniforms:
    @pytest.mark.parametrize("n_draws", [1, 6, 7, 32, 33, 512])
    def test_matches_numpy_philox(self, n_draws):
        rng = np.random.default_rng(2024)
        seeds = [0, 12345, 2**64 - 1, 2**64 + 7, 2**70 + 3, 2**128 - 1]
        seeds += [int(s) for s in rng.integers(0, 2**63, size=3)]
        seeds += [int(s) << 64 | 99 for s in rng.integers(1, 2**62, size=3)]
        for seed in seeds:
            start = int(rng.integers(1, 2**40))
            indices = np.array(
                [*range(start, start + 5), 2**32, 2**32 + 1, 2**63 + 5, 2**64 - 1],
                dtype=np.uint64,
            )
            got = philox_uniforms(seed, indices, n_draws)
            for row, i in zip(got, indices):
                ref = Generator(Philox(key=seed, counter=int(i) << 64)).uniform(size=n_draws)
                assert np.array_equal(row.view(np.uint64), ref.view(np.uint64)), (seed, i)

    def test_run_mc_block_matches_per_sample_reference(self):
        scen = scenario_from_tolerances([(0.6, 0.3), (1.0, -0.2), (0.8, 1.1)], 0.05, 0.2, 0.5)
        seed = 2**65 + 17
        vals = philox_uniforms(seed, np.arange(4093, 4100), 2 * scen.n_elements)
        block = _excitations(_tolerance_box(scen), vals)
        for row, i in zip(block, range(4093, 4100)):
            ref = sample_realization(scen, sample_stream(seed, i))
            assert np.array_equal(row.view(np.uint64), ref.view(np.uint64))


class TestRunMc:
    def test_single_zero_tolerance_sample_is_nominal(self):
        scen = _scenario(0.0, 0.0)
        grid = uniform_grid(41)
        report = run_mc(scen, _pmap(scen, grid, 3), 1, seed=0)
        nominal_power = np.abs(nominal_af_curve(scen, grid)) ** 2
        assert np.allclose(report.per_u_min, nominal_power, atol=1e-12)
        assert np.allclose(report.per_u_max, nominal_power, atol=1e-12)

    def test_seeded_determinism(self):
        scen = _scenario()
        grid = uniform_grid(31)
        a = run_mc(scen, _pmap(scen, grid, 4), 3000, seed=42, probe_directions=(0.3,))
        b = run_mc(scen, _pmap(scen, grid, 4), 3000, seed=42, probe_directions=(0.3,))
        assert np.array_equal(a.per_u_min, b.per_u_min)
        assert np.array_equal(a.per_u_max, b.per_u_max)
        assert np.array_equal(a.region_frequencies, b.region_frequencies)
        assert np.array_equal(a.histograms[0].counts, b.histograms[0].counts)

    def test_chunk_size_invariance(self, monkeypatch):
        scen = _scenario()
        grid = uniform_grid(21)  # 336 bytes of product per sample
        pmap = _pmap(scen, grid, 3)
        reports = []
        # one chunk; 2-sample chunks; 5-sample chunks, leaving one sample
        # over (501 = 100 * 5 + 1); 64-sample chunks with a longer tail
        for budget in (1 << 30, 1, 5 * 336, 64 * 336):
            monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", budget)
            reports.append(run_mc(scen, pmap, 501, seed=1, probe_directions=(0.3, -0.6)))
        for other in reports[1:]:
            assert np.array_equal(other.per_u_min, reports[0].per_u_min)
            assert np.array_equal(other.per_u_max, reports[0].per_u_max)
            assert np.array_equal(other.region_frequencies, reports[0].region_frequencies)
            assert np.array_equal(other.mode_region, reports[0].mode_region)
            for h, h0 in zip(other.histograms, reports[0].histograms):
                assert np.array_equal(h.counts, h0.counts)

    @pytest.mark.parametrize("n_samples, budget", [(2049, None), (9, 4 * 336), (3, 1)])
    def test_lone_last_sample_rounds_like_the_rest(self, n_samples, budget, monkeypatch):
        # with zero tolerances every sample is the nominal pattern, so the
        # envelope has zero width only if every sample's product rounds the
        # same; BLAS rounds a one-row product (gemv) unlike a gemm row
        if budget is not None:
            monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", budget)
        scen = _scenario(0.0, 0.0)
        grid = uniform_grid(21)
        report = run_mc(scen, _pmap(scen, grid, 3), n_samples, seed=1)
        assert np.array_equal(report.per_u_min, report.per_u_max)

    def test_envelope_inside_bounds(self):
        scen = _scenario()
        grid = uniform_grid(51)
        curve = power_bounds(scen, grid)
        report = run_mc(scen, _pmap(scen, grid, 5), 20_000, seed=5)
        slack = 1e-9 * np.maximum(curve.p_hi, 1e-300)
        assert np.all(report.per_u_min >= curve.p_lo - slack)
        assert np.all(report.per_u_max <= curve.p_hi + slack)

    def test_frequency_columns_sum_to_one(self):
        scen = _scenario()
        grid = uniform_grid(21)
        report = run_mc(scen, _pmap(scen, grid, 4), 3000, seed=2)
        sums = report.region_frequencies.sum(axis=0)
        assert np.abs(sums - 1.0).max() <= 1.0 / 3000

    def test_mode_agreement_at_sidelobe_peaks(self):
        # the uniform-area ring model is not the induced density, so mode
        # agreement is asserted where analyses actually probe: at the
        # nominal pattern's sidelobe peaks the empirical mode must land in
        # the most probable ring or a neighbor
        scen = _scenario()
        grid = uniform_grid(41)
        pmap = _pmap(scen, grid, 5)
        report = run_mc(scen, pmap, 30_000, seed=8)
        power = np.abs(nominal_af_curve(scen, grid)) ** 2
        from arraytol.pia import mainlobe_indices

        i_max, left, right = mainlobe_indices(power)
        side = np.ones(len(grid), dtype=bool)
        side[left : right + 1] = False
        peaks = [
            i
            for i in range(1, len(grid) - 1)
            if side[i] and power[i] >= power[i - 1] and power[i] >= power[i + 1]
        ]
        assert peaks
        pia_mode = np.argmax(pmap.p, axis=0) + 1
        for i in peaks:
            assert abs(int(report.mode_region[i]) - int(pia_mode[i])) <= 1

    def test_histogram_bins_span_bounds(self):
        scen = _scenario()
        grid = uniform_grid(41)
        pmap = _pmap(scen, grid, 5)
        report = run_mc(scen, pmap, 2000, seed=3, probe_directions=(0.28,))
        hist = report.histograms[0]
        idx = int(np.argmin(np.abs(grid.samples - 0.28)))
        assert hist.u == pytest.approx(float(grid.samples[idx]))
        assert hist.counts.size == 200
        assert hist.bin_edges_db.size == 201
        assert hist.counts.sum() == 2000
        lo_db, hi_db = pmap.region_power_db[idx, 0], pmap.region_power_db[idx, -1]
        assert hist.bin_edges_db[0] == pytest.approx(lo_db - 1.0)
        assert hist.bin_edges_db[-1] == pytest.approx(hi_db + 1.0)

    def test_probes_sharing_a_sample_give_one_histogram(self):
        scen = _scenario()
        grid = uniform_grid(41)  # samples 0.05 apart
        pmap = _pmap(scen, grid, 5)
        report = run_mc(scen, pmap, 500, seed=3, probe_directions=(0.28, -0.5, 0.3, 0.29, -0.51))
        assert [h.index for h in report.histograms] == [26, 10]
        for hist in report.histograms:
            assert hist.u == float(grid.samples[hist.index])
            single = run_mc(scen, pmap, 500, seed=3, probe_directions=(hist.u,))
            assert np.array_equal(hist.counts, single.histograms[0].counts)

    def test_rejects_bad_sample_count(self):
        with pytest.raises(Exception):
            run_mc(_scenario(), _pmap(_scenario(), uniform_grid(11), 3), 0, seed=0)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(seed=-5), dict(seed=2**128), dict(seed=1.5), dict(n_samples=2.5)],
    )
    def test_rejects_bad_seed_or_count(self, kwargs):
        args = dict(seed=0, n_samples=10) | kwargs
        with pytest.raises(ValidationError):
            run_mc(_scenario(), _pmap(_scenario(), uniform_grid(11), 3), **args)


@st.composite
def _random_scenarios(draw):
    """2..16 elements, 0.25..2 wavelength spacing, steered, asymmetric intervals."""
    n = draw(st.integers(min_value=2, max_value=16))
    spacing = draw(st.floats(min_value=0.25, max_value=2.0))
    steer = draw(st.floats(min_value=-math.pi, max_value=math.pi))
    fraction = st.floats(min_value=0.0, max_value=0.3)
    elements = []
    for i in range(n):
        amp = draw(st.floats(min_value=0.1, max_value=1.0))
        phase = steer * i
        elements.append(
            ExcitationInterval(
                nominal_amplitude=amp,
                nominal_phase=phase,
                amplitude_lo=amp * (1.0 - draw(fraction)),
                amplitude_hi=amp * (1.0 + draw(fraction)),
                phase_lo=phase - draw(fraction),
                phase_hi=phase + draw(fraction),
            )
        )
    return ArrayScenario(elements=tuple(elements), spacing=spacing)


@settings(max_examples=40, deadline=None)
@given(
    scen=_random_scenarios(),
    n_u=st.integers(min_value=2, max_value=15),
    k=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_scenarios_stay_inside_bounds(scen, n_u, k, seed):
    grid = uniform_grid(n_u)
    bounds = power_bounds(scen, grid, arc_points=4)
    pmap = probability_map(bounds, k)
    assert np.abs(pmap.p.sum(axis=0) - 1.0).max() <= 1e-9
    report = run_mc(scen, pmap, 300, seed=seed)
    slack = 1e-9 * np.maximum(bounds.p_hi, 1e-300)
    assert np.all(report.per_u_min >= bounds.p_lo - slack)
    assert np.all(report.per_u_max <= bounds.p_hi + slack)
