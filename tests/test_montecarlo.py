"""Monte Carlo oracle tests: determinism, inclusion, ring frequencies."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arraytol import (
    ArrayScenario,
    ExcitationInterval,
    feature_report,
    power_bounds,
    run_mc,
    sample_realization,
    sample_stream,
    scenario_from_config,
    scenario_from_tolerances,
    uniform_grid,
)
from arraytol import montecarlo
from arraytol.errors import ValidationError
from arraytol.validate import run_validation

from helpers import (
    nominal_af_curve,
    one_element_ring_law,
    two_element_ring_law,
    reference_draw,
    reference_uniforms,
    splitmix64_words,
    stream_key,
    taylor_taper,
)


def _scenario(xi=0.02, gamma=math.radians(4.0)):
    amps = [0.5, 0.8, 1.0, 1.0, 0.8, 0.5]
    return scenario_from_tolerances([(a, 0.0) for a in amps], xi, gamma, 0.5)


def _curve(scenario, grid, k_regions):
    return power_bounds(scenario, grid, k_regions=k_regions)


def _bits(w):
    return np.ascontiguousarray(w).view(np.uint64)


def _assert_same_report(report, reference):
    assert np.array_equal(report.per_u_min, reference.per_u_min)
    assert np.array_equal(report.per_u_max, reference.per_u_max)
    assert np.array_equal(report.region_frequencies, reference.region_frequencies)
    for h, h0 in zip(report.histograms, reference.histograms):
        assert np.array_equal(h.counts, h0.counts)


class TestSampleStream:
    """The stream is SplitMix64 at fixed counters, word j of a run mix64(key + (j + 1) gamma)."""

    SEEDS = [0, 1, 2**64 - 1, 2**64 + 7, 2**128 - 1]

    def test_seed_zero_reads_splitmix64_from_state_zero(self):
        # 0xE220A8397B1DCDAF is splitmix64.c's first output from state 0
        uniforms, weights = np.empty(2), np.empty(1, dtype=complex)
        stream = sample_stream(0)
        assert stream.key == 0
        montecarlo._draw((np.zeros(2), np.ones(2)), stream, uniforms, weights)
        assert uniforms[0] == (0xE220A8397B1DCDAF >> 11) * 2.0**-53
        assert stream.position == 2

    @pytest.mark.parametrize("seed", SEEDS)
    def test_key_is_mix_of_the_seed_words(self, seed):
        assert sample_stream(seed).key == stream_key(seed)
        assert sample_stream(seed).position == 0

    def test_seeds_a_word_apart_get_different_keys(self):
        keys = {sample_stream(s).key for s in (0, 1, 9, 2**64, 9 + 2**64, 2**64 - 1, 2**128 - 1)}
        assert len(keys) == 7
        assert sample_stream(np.int64(12)).key == sample_stream(np.uint64(12)).key == stream_key(12)

    # offsets: the start, an odd one, past 2**32, and across the 2**64 counter wrap
    @pytest.mark.parametrize("position", [0, 5, 2**32 + 3, 2**64 - 5, 2**64 + 1])
    @pytest.mark.parametrize("seed", [0, 2**64 + 7, 2**128 - 1], ids=["0", "2^64+7", "2^128-1"])
    def test_words_match_a_scalar_transcription(self, seed, position):
        key = sample_stream(seed).key
        stream = montecarlo.SampleStream(key, position)
        out = np.empty((3, 4), dtype=np.uint64)
        montecarlo._words(stream, out, np.empty_like(out))
        assert out.ravel().tolist() == splitmix64_words(key, position, 12)
        assert stream.position == position + 12
        montecarlo._words(stream, out[0], np.empty_like(out[0]))
        assert out[0].tolist() == splitmix64_words(key, position + 12, 4)

    def test_period_is_two_to_the_64_words(self):
        key = sample_stream(3).key
        words = [np.empty(6, dtype=np.uint64) for _ in range(2)]
        for position, out in zip((7, 7 + 2**64), words):
            montecarlo._words(montecarlo.SampleStream(key, position), out, np.empty_like(out))
        assert np.array_equal(words[0], words[1])

    def test_a_million_uniforms_look_uniform(self):
        n = 10**6
        uniforms, weights = np.empty((n // 2, 2)), np.empty((n // 2, 1), dtype=complex)
        montecarlo._draw((np.zeros(2), np.ones(2)), sample_stream(0), uniforms, weights)
        u = uniforms.ravel()
        assert 0.0 <= u.min() and u.max() < 1.0
        counts = np.bincount((u * 64).astype(np.int64), minlength=64)
        chi2 = float(((counts - n / 64) ** 2).sum() / (n / 64))
        assert chi2 <= 103.44  # the 99.9th percentile of chi-square with 63 degrees of freedom
        assert abs(u.mean() - 0.5) <= 4.0 / math.sqrt(12.0 * n)
        lag1 = np.corrcoef(u[:-1], u[1:])[0, 1]
        assert abs(lag1) <= 4.0 / math.sqrt(n)


class TestSampleRealization:
    def test_zero_tolerance_gives_nominals(self):
        scen = _scenario(0.0, 0.0)
        w = sample_realization(scen, sample_stream(0))
        expected = np.array([e.nominal for e in scen.elements])
        assert np.allclose(w, expected, atol=0.0)

    def test_membership_is_exact(self):
        scen = _scenario()
        stream = sample_stream(3)
        for _ in range(200):
            w = sample_realization(scen, stream)
            amps = np.abs(w)
            phases = np.angle(w)
            for e, a, b in zip(scen.elements, amps, phases):
                assert e.amplitude_lo - 1e-12 <= a <= e.amplitude_hi + 1e-12
                assert e.phase_lo - 1e-12 <= b <= e.phase_hi + 1e-12

    def test_uniform_mean_within_three_sigma(self):
        scen = _scenario()
        n = 20_000
        stream = sample_stream(11)
        draws = np.array([np.abs(sample_realization(scen, stream)[0]) for _ in range(n)])
        e0 = scen.elements[0]
        mean = 0.5 * (e0.amplitude_lo + e0.amplitude_hi)
        width = e0.amplitude_hi - e0.amplitude_lo
        sigma = width / math.sqrt(12.0 * n)
        assert abs(draws.mean() - mean) <= 3.0 * sigma

    def test_streams_differ_by_index_and_repeat(self):
        scen = _scenario()
        stream = sample_stream(5)
        a = sample_realization(scen, stream)
        b = sample_realization(scen, stream)
        c = sample_realization(scen, sample_stream(5))
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)


class TestReferenceDraw:
    """The in-place cos/sin draw gives the bits of lo + width * u and amp * exp(j phase)."""

    @staticmethod
    def _scenario():
        # the middle element's phase interval has zero width
        return ArrayScenario(
            elements=(
                ExcitationInterval(0.6, 0.3, 0.57, 0.62, 0.2, 0.35),
                ExcitationInterval(1.0, -2.9, 0.99, 1.0, -2.9, -2.9),
                ExcitationInterval(0.8, 1.1, 0.75, 0.8, 0.9, 1.4),
            ),
            spacing=0.5,
        )

    @pytest.mark.parametrize("seed", [0, 2**64 + 7, 2**128 - 1], ids=["0", "2^64+7", "2^128-1"])
    def test_sample_realization_rows(self, seed):
        scen = self._scenario()
        expected = reference_draw(scen, reference_uniforms(seed, (40, 2 * scen.n_elements)))
        stream = sample_stream(seed)
        got = np.array([sample_realization(scen, stream) for _ in range(40)])
        assert np.array_equal(_bits(got), _bits(expected))
        assert np.allclose(np.angle(got[:, 1]), -2.9, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("seed", [0, 2**64 + 7, 2**128 - 1], ids=["0", "2^64+7", "2^128-1"])
    def test_run_mc_chunk_weights(self, seed, monkeypatch):
        scen = self._scenario()
        grid = uniform_grid(21)  # 8 * 21 + 16 * 3 = 216 chunk bytes per sample
        chunks = {}  # by the stream position each chunk starts at; workers draw in any order
        draw = montecarlo._draw

        def spy(box, stream, uniforms, weights):
            position = stream.position
            draw(box, stream, uniforms, weights)
            chunks[position] = weights.copy()

        monkeypatch.setattr(montecarlo, "_draw", spy)
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 5 * 216)
        run_mc(_curve(scen, grid, 3), 23, seed=seed)
        assert sorted(chunks) == [0, 30, 60, 90, 120]  # 2N = 6 words a sample
        assert [len(chunks[p]) for p in sorted(chunks)] == [5, 5, 5, 5, 3]
        expected = reference_draw(scen, reference_uniforms(seed, (23, 2 * scen.n_elements)))
        drawn = np.concatenate([chunks[p] for p in sorted(chunks)])
        assert np.array_equal(_bits(drawn), _bits(expected))


# probe directions: grid samples of their own on 101 directions, one sample on 2
PROBES = (-0.336, 0.0)


def _probe_count(curve, directions=PROBES):
    """The histograms run_mc gives for directions: one per grid sample nearest one."""
    return len({int(np.argmin(np.abs(curve.grid.samples - u))) for u in directions})


def _fixed(amplitude, phase_deg):
    return {"amplitude": amplitude, "phase_deg": phase_deg}


def _live(amplitude, phase_deg, amplitude_lo, amplitude_hi, phase_lo_deg, phase_hi_deg):
    return {"amplitude": amplitude, "phase_deg": phase_deg,
            "amplitude_lo": amplitude_lo, "amplitude_hi": amplitude_hi,
            "phase_lo_deg": phase_lo_deg, "phase_hi_deg": phase_hi_deg}


# configs with one toleranced element, whose |AF| has an exact law
ONE_LIVE = {
    # element 0 at 1 +- 10 %, +-5 deg beside a fixed 0.8 at 0.3 rad
    "d=0.5": {"spacing_wavelengths": 0.5,
              "elements": [_live(1.0, 0.0, 0.9, 1.1, -5.0, 5.0), _fixed(0.8, math.degrees(0.3))]},
    "d=2.7": {"spacing_wavelengths": 2.7,
              "elements": [_live(1.0, 0.0, 0.9, 1.1, -5.0, 5.0), _fixed(0.8, math.degrees(0.3))]},
    # a beam steered 60 deg/element, its middle element live
    "steered": {"spacing_wavelengths": 0.5,
                "elements": [_fixed(0.6, 0.0), _live(1.0, -60.0, 0.9, 1.1, -65.0, -55.0),
                             _fixed(0.9, -120.0)]},
    # amplitudes down to 0
    "a_lo=0": {"spacing_wavelengths": 0.7,
               "elements": [_fixed(0.7, 0.0), _live(0.5, 0.0, 0.0, 1.0, -10.0, 10.0)]},
}
# two elements with fixed amplitudes 1 and 0.7 and +-10 deg phases: the
# difference of their phases has a triangular law
TWO_LIVE = {"spacing_wavelengths": 0.5, "xi_percent": 0.0, "gamma_deg": 10.0,
            "elements": [_fixed(1.0, 0.0), _fixed(0.7, 0.0)]}
# each config's exact ring law
LAWS = {**{name: (config, one_element_ring_law) for name, config in ONE_LIVE.items()},
        "two-live": (TWO_LIVE, two_element_ring_law)}
# the chi-square(4) quantile at upper tail 1e-6: scipy.stats.chi2.isf(1e-6, 4) = 33.3768...
CHI2_4_TAIL_1E_6 = 33.38


class TestExactLaw:
    """run_mc's ring counts against the exact law of one toleranced element, or of two
    with fixed amplitudes (Pearson's chi-square).

    K = 5 rings on 11 directions, 2e4 samples from seed 0: each row's chi-square
    has 4 degrees of freedom, and a sound sampler exceeds the 1e-6 tail
    quantile on a row with probability 1e-6.
    """

    @staticmethod
    def _chi2(name, n_samples=20_000):
        """The chi-square of each grid row's ring counts against the exact law."""
        config, law = LAWS[name]
        curve = _curve(scenario_from_config(config), uniform_grid(11), 5)
        counts = run_mc(curve, n_samples, seed=0).region_frequencies * n_samples
        stats = []
        for i, u in enumerate(curve.grid.samples):
            expected = n_samples * law(config, u, curve.ring_radii[i])
            assert expected.min() >= 5.0  # Pearson's approximation holds
            stats.append(float(((counts[:, i] - expected) ** 2 / expected).sum()))
        return np.array(stats)

    @pytest.mark.parametrize("name", LAWS)
    def test_ring_counts_follow_the_law(self, name):
        assert self._chi2(name).max() < CHI2_4_TAIL_1E_6

    @pytest.mark.parametrize("name", LAWS)
    def test_fails_draws_from_the_middle_half_of_each_interval(self, name, monkeypatch):
        box = montecarlo._tolerance_box

        def middle_half(scenario):
            lo, width = box(scenario)
            return lo + 0.25 * width, 0.5 * width

        monkeypatch.setattr(montecarlo, "_tolerance_box", middle_half)
        assert self._chi2(name).min() > CHI2_4_TAIL_1E_6


class TestSpans:
    """_spans cuts range(n) into steps of step, a lone last row joining the span before it."""

    @staticmethod
    def _reference(n, step):
        spans, start = [], 0
        while True:
            stop = min(start + step, n)
            if n - stop == 1:  # one row left over: it joins this span
                stop = n
            spans.append((start, stop))
            if stop == n:
                return spans
            start = stop

    @pytest.mark.parametrize("step", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_against_a_brute_force_reference(self, n, step):
        spans = list(montecarlo._spans(n, step))
        assert spans == self._reference(n, step)
        assert all(stop - start >= 2 for start, stop in spans) or n == 1

    def test_spans_are_made_as_they_are_taken(self):
        assert next(montecarlo._spans(2**62, 3)) == (0, 3)


class TestRunMcMemory:
    """run_mc's traced peak is its preallocated chunk buffers, whatever n_samples, N and N_u."""

    @staticmethod
    def _taylor_curve(n, n_u):
        scen = scenario_from_tolerances(
            [(a, 0.0) for a in taylor_taper(n)], 0.01, math.radians(3.0), 0.5
        )
        return _curve(scen, uniform_grid(n_u), 5)

    @staticmethod
    def _peak(curve, n_samples, probes=PROBES):
        tracemalloc.start()
        try:
            run_mc(curve, n_samples, seed=0, probe_directions=probes)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_samples(self, monkeypatch):
        # two workers whatever the machine: how the workers' short-lived
        # temporaries happen to overlap varies the peak by up to those of all but one
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1})
        curve = self._taylor_curve(16, 101)
        assert abs(self._peak(curve, 50_000) - self._peak(curve, 5_000)) <= 64 << 10

    # the second: 64 elements on 2 directions, where the draws decide the chunk
    @pytest.mark.parametrize("n, n_u", [(16, 101), (64, 2)])
    def test_peak_is_the_chunk_buffers(self, n, n_u, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1})
        workers = 2 if montecarlo._openblas_threads() else 1
        curve = self._taylor_curve(n, n_u)
        width = max(n_u, 2 * n)  # a power row, or a sample's uniforms
        probes = _probe_count(curve)  # a power column each
        rows = max(2, montecarlo._CHUNK_BYTES // (8 * width + 16 * n + 8 * probes)) + 1
        assert 5_000 // rows >= workers  # a chunk for each worker
        block_rows = min(max(2, n, montecarlo._BLOCK_BYTES // (16 * n_u)) + 1, rows)
        batch = min(rows + montecarlo._PROBE_BYTES // (8 * probes), 5_000)
        # each worker's power rows, which hold the uniforms, and weights; its
        # product block, whose bytes hold the ring mask; its probe buffer; the steering matrix
        per_worker = (rows * (8 * width + 16 * n) + max(16 * block_rows, rows) * n_u
                      + probes * 8 * batch)
        buffers = workers * per_worker + n * n_u * 16
        assert self._peak(curve, 5_000) <= 1.1 * buffers

    def test_peak_is_at_most_mc_bytes(self, monkeypatch):
        # two workers, whose K + 1 rows of ring counts run_mc merges: 2
        # elements on 501 directions at K = 20
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1})
        scen = scenario_from_tolerances([(1.0, 0.0), (0.7, 0.0)], 0.02, math.radians(4.0), 0.5)
        curve = power_bounds(scen, uniform_grid(501), 2, 20)
        assert self._peak(curve, 3000, ()) <= montecarlo.mc_bytes(2, 20, 501, 3000, 0)


class TestWorkers:
    """run_mc's chunks on one worker thread per CPU, with OpenBLAS held to one thread meanwhile."""

    @staticmethod
    def _run(curve, n_samples, monkeypatch, cpus):
        """run_mc with cpus CPUs to run on, and the threads that drew its chunks.

        Each worker waits at its first draw until every worker has taken a
        chunk from the shared queue, so none can take them all first.
        """
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        threads = set()
        started = threading.Barrier(cpus if montecarlo._openblas_threads() else 1, timeout=60)
        draw = montecarlo._draw

        def spy(*args):
            if threading.current_thread() not in threads:
                threads.add(threading.current_thread())  # kept, so never reused
                started.wait()
            draw(*args)

        monkeypatch.setattr(montecarlo, "_draw", spy)
        report = run_mc(curve, n_samples, seed=3, probe_directions=PROBES)
        return report, len(threads)

    # 16 elements on 101 directions, 2 probed: 8 * 101 + 16 * 16 + 8 * 2 =
    # 1080 bytes a sample; 64 on 2, where 2N > N_u, 1 probed: 8 * 128 +
    # 16 * 64 + 8 = 2056.  Chunks of 5 and 4 samples, the last one with a
    # lone sample joined to it
    @pytest.mark.parametrize("n, n_u, rows, n_samples", [(16, 101, 5, 36), (64, 2, 4, 25)])
    def test_bits_do_not_depend_on_the_workers(self, n, n_u, rows, n_samples, monkeypatch):
        curve = TestRunMcMemory._taylor_curve(n, n_u)
        sample_bytes = 8 * max(n_u, 2 * n) + 16 * n + 8 * _probe_count(curve)
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", rows * sample_bytes)
        reference, drawn_by = self._run(curve, n_samples, monkeypatch, 1)
        assert drawn_by == 1
        pinned = montecarlo._openblas_threads() is not None
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # workers swap often, so a lost update would show
        try:
            for cpus in (2, 3):  # 3 workers on this machine's CPUs, however few
                report, drawn_by = self._run(curve, n_samples, monkeypatch, cpus)
                assert drawn_by == (cpus if pinned else 1)
                _assert_same_report(report, reference)
                assert report.region_frequencies.sum(axis=0) == pytest.approx(1.0, abs=1e-12)
        finally:
            sys.setswitchinterval(switch)

    def test_without_openblas_one_worker_gives_the_same_bits(self, monkeypatch):
        curve = TestRunMcMemory._taylor_curve(16, 101)
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 5 * 1080)  # 2 probes
        reference, _ = self._run(curve, 36, monkeypatch, 3)
        monkeypatch.setattr(montecarlo, "_openblas_threads", lambda: None)
        report, drawn_by = self._run(curve, 36, monkeypatch, 3)
        assert drawn_by == 1
        _assert_same_report(report, reference)


class TestProbeBatches:
    """A worker bins its probe columns in batches: a chunk's and _PROBE_BYTES more."""

    @staticmethod
    def _histogram_calls(monkeypatch):
        calls = []
        histogram = np.histogram

        def spy(*args, **kwargs):
            calls.append(len(args[0]))
            return histogram(*args, **kwargs)

        monkeypatch.setattr(np, "histogram", spy)
        return calls

    # 2 probes, and 30 spread over the grid's 101 samples; chunks of 5
    # samples and the last one of 6, so a chunk's probe columns take 6 rows
    @pytest.mark.parametrize("directions", [PROBES, tuple(np.linspace(-1.0, 1.0, 30))],
                             ids=["2-probes", "30-probes"])
    def test_counts_do_not_depend_on_the_batches(self, directions, monkeypatch):
        curve = TestRunMcMemory._taylor_curve(16, 101)
        probes = _probe_count(curve, directions)
        assert probes == len(directions)
        reference = run_mc(curve, 36, seed=3, probe_directions=directions)
        assert sum(h.counts.sum() for h in reference.histograms) > 0.9 * 36 * probes
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 5 * (8 * 101 + 16 * 16 + 8 * probes))
        calls = self._histogram_calls(monkeypatch)
        # batches of 6 columns, flushed before each chunk but the first and
        # at the end; of 18, holding 3 chunks; of the run's 36, flushed once
        for probe_bytes, flushes in ((0, 7), (8 * probes * 12, 3), (1 << 30, 1)):
            monkeypatch.setattr(montecarlo, "_PROBE_BYTES", probe_bytes)
            for cpus in ({0}, {0, 1}):
                monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid, c=cpus: c)
                calls.clear()
                report = run_mc(curve, 36, seed=3, probe_directions=directions)
                _assert_same_report(report, reference)
                assert sum(calls) == 36 * probes  # each sample binned once per probe
                if len(cpus) == 1:
                    assert len(calls) == flushes * probes

    def test_validation_bins_no_probe(self, monkeypatch):
        scen = _scenario()
        binned, to_db = self._histogram_calls(monkeypatch), []
        power_db = montecarlo.power_db
        monkeypatch.setattr(montecarlo, "power_db",
                            lambda *a, **kw: to_db.append(len(a[0])) or power_db(*a, **kw))
        results = run_validation(scen, uniform_grid(21), 3, 2000, arc_points=4)
        assert all(r.passed for r in results)
        assert binned == [] and to_db == []
        # the spies see a run with a probe
        run_mc(_curve(scen, uniform_grid(21), 3), 2000, seed=0, probe_directions=(0.0,))
        assert sum(binned) == sum(to_db) == 2000


class TestOpenBlasPin:
    """OpenBLAS runs one thread while run_mc's workers do, and its count is restored after."""

    @pytest.fixture
    def threads(self, monkeypatch):
        found = montecarlo._openblas_threads()
        if found is None:
            pytest.skip("no OpenBLAS is mapped into this process")
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 5 * 1064)  # 36 samples: 7 chunks
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1})
        get, set_ = found
        before = get()
        set_(2)
        yield get
        set_(before)

    @staticmethod
    def _counts_at_draws(get, monkeypatch, fail_at=None):
        """The OpenBLAS thread count at each _draw call; the call fail_at raises."""
        counts = []
        draw = montecarlo._draw

        def spy(*args):
            counts.append(get())
            if len(counts) == fail_at:
                raise RuntimeError(f"chunk {fail_at}")
            draw(*args)

        monkeypatch.setattr(montecarlo, "_draw", spy)
        return counts

    def test_count_is_one_during_the_run_and_restored_after(self, threads, monkeypatch):
        counts = self._counts_at_draws(threads, monkeypatch)
        run_mc(TestRunMcMemory._taylor_curve(16, 101), 36, seed=0)
        assert counts == [1] * 7 and threads() == 2

    def test_count_is_restored_when_a_chunk_raises(self, threads, monkeypatch):
        self._counts_at_draws(threads, monkeypatch, fail_at=3)
        with pytest.raises(RuntimeError, match="chunk 3"):
            run_mc(TestRunMcMemory._taylor_curve(16, 101), 36, seed=0)
        assert threads() == 2

    def test_one_worker_leaves_the_count(self, threads, monkeypatch):
        # one sample: one chunk, one worker, whose product may use OpenBLAS's threads
        counts = self._counts_at_draws(threads, monkeypatch)
        run_mc(TestRunMcMemory._taylor_curve(16, 101), 1, seed=0)
        assert counts == [2] and threads() == 2


class TestRunMc:
    def test_single_zero_tolerance_sample_is_nominal(self):
        scen = _scenario(0.0, 0.0)
        grid = uniform_grid(41)
        report = run_mc(_curve(scen, grid, 3), 1, seed=0)
        nominal_power = np.abs(nominal_af_curve(scen, grid)) ** 2
        assert np.allclose(report.per_u_min, nominal_power, atol=1e-12)
        assert np.allclose(report.per_u_max, nominal_power, atol=1e-12)

    def test_seeded_determinism(self):
        scen = _scenario()
        grid = uniform_grid(31)
        a = run_mc(_curve(scen, grid, 4), 3000, seed=42, probe_directions=(0.3,))
        b = run_mc(_curve(scen, grid, 4), 3000, seed=42, probe_directions=(0.3,))
        assert np.array_equal(a.per_u_min, b.per_u_min)
        assert np.array_equal(a.per_u_max, b.per_u_max)
        assert np.array_equal(a.region_frequencies, b.region_frequencies)
        assert np.array_equal(a.histograms[0].counts, b.histograms[0].counts)

    @pytest.mark.parametrize("seed", [0, 2**64 + 7, 2**128 - 1], ids=["0", "2^64+7", "2^128-1"])
    def test_draws_the_rows_of_sample_realization(self, seed, monkeypatch):
        # one chunk gives one gemm
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 1 << 30)
        scen = scenario_from_tolerances([(0.6, 0.3), (1.0, -0.2), (0.8, 1.1)], 0.05, 0.2, 0.5)
        grid = uniform_grid(21)
        report = run_mc(_curve(scen, grid, 3), 37, seed=seed)
        stream = sample_stream(seed)
        stack = np.array([sample_realization(scen, stream) for _ in range(37)])
        steering = np.exp(
            2j * math.pi * scen.spacing * np.outer(np.arange(scen.n_elements), grid.samples)
        )
        power = np.abs(stack @ steering) ** 2
        assert np.array_equal(report.per_u_min, power.min(axis=0))
        assert np.array_equal(report.per_u_max, power.max(axis=0))

    def test_seed_uses_both_key_words(self):
        scen = _scenario()
        curve = _curve(scen, uniform_grid(21), 3)
        low = run_mc(curve, 50, seed=9)
        high = run_mc(curve, 50, seed=9 + 2**64)
        assert not np.array_equal(low.per_u_max, high.per_u_max)

    def test_numpy_integer_seed_matches_int(self):
        scen = _scenario()
        curve = _curve(scen, uniform_grid(21), 3)
        a = run_mc(curve, 50, seed=np.int64(12), probe_directions=(0.3,))
        b = run_mc(curve, 50, seed=12, probe_directions=(0.3,))
        assert np.array_equal(a.per_u_min, b.per_u_min)
        assert np.array_equal(a.per_u_max, b.per_u_max)
        assert np.array_equal(a.region_frequencies, b.region_frequencies)
        assert np.array_equal(a.histograms[0].counts, b.histograms[0].counts)

    def test_chunk_size_invariance(self, monkeypatch):
        scen = _scenario()
        # 16 * 21 = 336 block bytes per row; 8 * 21 + 16 * 6 + 8 * 2 = 280 chunk
        # bytes per sample, with its two probe columns
        grid = uniform_grid(21)
        curve = _curve(scen, grid, 3)
        # the reference: one chunk, one block, one gemm
        monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", 1 << 30)
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 1 << 30)
        reference = run_mc(curve, 501, seed=1, probe_directions=(0.3, -0.6))
        # blocks: one per chunk; 6 rows, the N floor; 7 rows, leaving one
        # row over in a 64-sample chunk (64 = 9 * 7 + 1); 100 rows, leaving
        # one row over in the 501-sample chunk
        for block_budget in (1 << 30, 1, 7 * 336, 100 * 336):
            monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", block_budget)
            # one chunk; 2-sample chunks; 5-sample chunks, leaving one sample
            # over (501 = 100 * 5 + 1); 64-sample chunks with a longer tail
            for budget in (1 << 30, 1, 5 * 280, 64 * 280):
                monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", budget)
                other = run_mc(curve, 501, seed=1, probe_directions=(0.3, -0.6))
                _assert_same_report(other, reference)

    def test_chunk_size_invariance_where_the_draws_decide(self, monkeypatch):
        # 40 elements on 5 directions: a sample's 2 * 40 uniforms outnumber
        # its 5 power values, so the draws decide the chunk, at 8 * 80 + 16 * 40
        # + 8 = 1288 bytes a sample, with its probe column
        scen = scenario_from_tolerances(
            [(a, 0.0) for a in taylor_taper(40)], 0.02, math.radians(4.0), 0.5
        )
        curve = _curve(scen, uniform_grid(5), 3)
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 1 << 30)
        reference = run_mc(curve, 501, seed=1, probe_directions=(0.0,))
        chunks = {}  # sizes by the stream position each chunk starts at
        draw = montecarlo._draw

        def spy(box, stream, uniforms, weights):
            chunks[stream.position] = len(weights)
            draw(box, stream, uniforms, weights)

        monkeypatch.setattr(montecarlo, "_draw", spy)
        # 5-sample chunks, leaving one sample over (501 = 100 * 5 + 1), and
        # 64-sample chunks; blocks: the chunk, and 40 rows, the N floor
        for budget, sizes in ((5 * 1288, [5] * 99 + [6]), (64 * 1288, [64] * 7 + [53])):
            monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", budget)
            for block_budget in (1 << 30, 1):
                monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", block_budget)
                chunks.clear()
                _assert_same_report(run_mc(curve, 501, seed=1, probe_directions=(0.0,)), reference)
                assert [chunks[p] for p in sorted(chunks)] == sizes
                assert sorted(chunks) == [80 * start for start in range(0, 500, sizes[0])]

    # chunks: one of 2049 samples, the default budget; 8 samples with the lone
    # ninth (8 * 21 + 16 * 6 = 264 bytes per sample); 2 with the lone third
    @pytest.mark.parametrize("n_samples, budget", [(2049, None), (9, 8 * 264), (3, 1)])
    def test_lone_last_sample_rounds_like_the_rest(self, n_samples, budget, monkeypatch):
        # with zero tolerances every sample is the nominal pattern, so the
        # envelope has zero width only if every sample's product rounds the
        # same; BLAS rounds a one-row product (gemv) unlike a gemm row
        if budget is not None:
            monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", budget)
        scen = _scenario(0.0, 0.0)
        grid = uniform_grid(21)
        # blocks: the default; 6 rows, the N floor; 8 rows, leaving one row
        # over in the 2049-sample chunk (2049 = 256 * 8 + 1)
        for block_budget in (montecarlo._BLOCK_BYTES, 1, 8 * 336):
            monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", block_budget)
            report = run_mc(_curve(scen, grid, 3), n_samples, seed=1)
            assert np.array_equal(report.per_u_min, report.per_u_max)

    def test_envelope_inside_bounds(self):
        scen = _scenario()
        grid = uniform_grid(51)
        curve = power_bounds(scen, grid)
        report = run_mc(_curve(scen, grid, 5), 20_000, seed=5)
        slack = 1e-9 * np.maximum(curve.p_hi, 1e-300)
        assert np.all(report.per_u_min >= curve.p_lo - slack)
        assert np.all(report.per_u_max <= curve.p_hi + slack)

    def test_frequency_columns_sum_to_one(self):
        scen = _scenario()
        grid = uniform_grid(21)
        report = run_mc(_curve(scen, grid, 4), 3000, seed=2)
        sums = report.region_frequencies.sum(axis=0)
        assert np.abs(sums - 1.0).max() <= 1.0 / 3000

    def test_mode_agreement_at_sidelobe_peaks(self):
        # the uniform-area ring model is not the induced density, so mode
        # agreement is asserted where analyses actually probe: at the
        # nominal pattern's sidelobe peaks the empirical mode must land in
        # the most probable ring or a neighbor
        scen = _scenario()
        grid = uniform_grid(41)
        curve = _curve(scen, grid, 5)
        report = run_mc(curve, 30_000, seed=8)
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
        pia_mode = np.argmax(curve.p, axis=0) + 1
        mc_mode = np.argmax(report.region_frequencies, axis=0) + 1
        for i in peaks:
            assert abs(int(mc_mode[i]) - int(pia_mode[i])) <= 1

    def test_histogram_bins_span_bounds(self):
        scen = _scenario()
        grid = uniform_grid(41)
        curve = _curve(scen, grid, 5)
        report = run_mc(curve, 2000, seed=3, probe_directions=(0.28,))
        hist = report.histograms[0]
        idx = int(np.argmin(np.abs(grid.samples - 0.28)))
        assert hist.u == pytest.approx(float(grid.samples[idx]))
        assert hist.counts.size == 200
        assert hist.bin_edges_db.size == 201
        assert hist.counts.sum() == 2000
        lo_db, hi_db = curve.region_power_db[idx, 0], curve.region_power_db[idx, -1]
        assert hist.bin_edges_db[0] == pytest.approx(lo_db - 1.0)
        assert hist.bin_edges_db[-1] == pytest.approx(hi_db + 1.0)

    def test_probes_sharing_a_sample_give_one_histogram(self):
        scen = _scenario()
        grid = uniform_grid(41)  # samples 0.05 apart
        curve = _curve(scen, grid, 5)
        report = run_mc(curve, 500, seed=3, probe_directions=(0.28, -0.5, 0.3, 0.29, -0.51))
        assert [h.index for h in report.histograms] == [26, 10]
        for hist in report.histograms:
            assert hist.u == float(grid.samples[hist.index])
            single = run_mc(curve, 500, seed=3, probe_directions=(hist.u,))
            assert np.array_equal(hist.counts, single.histograms[0].counts)

    @pytest.mark.parametrize("u", [1.5, -1.0000001, float("nan")])
    def test_rejects_a_probe_outside_the_direction_range(self, u):
        # the CLI rejects such probes before any run; a library caller reaches run_mc's own check
        with pytest.raises(ValidationError, match=rf"probe direction {u} must lie in \[-1, 1\]"):
            run_mc(_curve(_scenario(), uniform_grid(11), 3), 10, probe_directions=(u,))

    def test_rejects_bad_sample_count(self):
        with pytest.raises(Exception):
            run_mc(_curve(_scenario(), uniform_grid(11), 3), 0, seed=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(seed=-5),
            dict(seed=2**128),
            dict(seed=1.5),
            dict(n_samples=2.5),
            dict(n_samples=2**63),  # beyond the int64 ring counts
        ],
    )
    def test_rejects_bad_seed_or_count(self, kwargs):
        args = dict(seed=0, n_samples=10) | kwargs
        with pytest.raises(ValidationError):
            run_mc(_curve(_scenario(), uniform_grid(11), 3), **args)


@st.composite
def _random_scenarios(draw):
    """2..64 elements, 0.25..2 wavelength spacing, steered, asymmetric intervals."""
    n = draw(st.integers(min_value=2, max_value=64))
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
# a sliver sector: at u = 1 its rotation by pi/2 rounds its bulge vertices
# onto one another, and the region must still start where the sliver does
@example(
    scen=ArrayScenario(
        (
            ExcitationInterval(1.0, 0.0, 1.0, 1.0, 0.0, 0.0),
            ExcitationInterval(1.0, 0.0, 0.75, 1.0, 0.0, 1.03e-41),
        ),
        0.25,
    ),
    n_u=2,
    k=1,
    seed=0,
)
def test_random_scenarios_stay_inside_bounds(scen, n_u, k, seed):
    grid = uniform_grid(n_u)
    bounds = power_bounds(scen, grid, arc_points=4, k_regions=k)
    assert np.abs(bounds.p.sum(axis=0) - 1.0).max() <= 1e-9
    report = run_mc(bounds, 300, seed=seed)
    slack = 1e-9 * np.maximum(bounds.p_hi, 1e-300)
    assert np.all(report.per_u_min >= bounds.p_lo - slack)
    assert np.all(report.per_u_max <= bounds.p_hi + slack)
    features = feature_report(bounds)
    gamma = features.gamma_intervals
    assert np.array_equal(gamma[1:, 0], gamma[:-1, 1])  # the peak intervals tile
    assert (gamma[0, 0], gamma[-1, 1]) == features.iams_gamma
    sll = features.sll_intervals
    if sll is None:
        assert features.iams_sll is None
    else:
        assert (sll[0, 0], sll[-1, 1]) == features.iams_sll
    assert abs(features.mean_probs.sum() - 1.0) <= 1e-9
