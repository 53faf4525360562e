"""Seeded Monte Carlo oracle for the interval bounds and ring probabilities.

Every sample draws its excitations from a counter-based random stream keyed
by (seed, sample index), so results are bitwise identical for a fixed seed
no matter how work is chunked or how many threads run.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .errors import ValidationError
from .model import AngularGrid, ArrayScenario
from .pia import ProbabilityMap, probability_map

_TWO_PI = 2.0 * math.pi
_HIST_BINS = 200


@dataclass(frozen=True)
class ProbeHistogram:
    """Fixed-bin dB histogram of the sampled power at one probe direction."""

    u: float
    bin_edges_db: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class McReport:
    """Empirical envelope and ring occupancy over n_samples realizations."""

    n_samples: int
    per_u_min: np.ndarray = field(repr=False)  # linear power
    per_u_max: np.ndarray = field(repr=False)
    region_frequencies: np.ndarray = field(repr=False)  # (K, N_u)
    mode_region: np.ndarray = field(repr=False)  # 1-based ring index per sample
    histograms: tuple[ProbeHistogram, ...] = ()


def sample_stream(seed: int, index: int) -> Generator:
    """Deterministic per-sample random stream keyed by (seed, sample index)."""
    return Generator(Philox(key=seed, counter=index << 64))


def sample_realization(scenario: ArrayScenario, stream: Generator) -> np.ndarray:
    """One crisp excitation draw: uniform in each amplitude/phase interval."""
    n = scenario.n_elements
    vals = stream.uniform(size=2 * n)
    alo = np.array([e.amplitude_lo for e in scenario.elements])
    ahi = np.array([e.amplitude_hi for e in scenario.elements])
    plo = np.array([e.phase_lo for e in scenario.elements])
    phi = np.array([e.phase_hi for e in scenario.elements])
    amps = alo + (ahi - alo) * vals[:n]
    phases = plo + (phi - plo) * vals[n:]
    return amps * np.exp(1j * phases)


def _excitation_block(scenario: ArrayScenario, seed: int, start: int, stop: int) -> np.ndarray:
    """Stack of realizations for sample indices [start, stop)."""
    n = scenario.n_elements
    alo = np.array([e.amplitude_lo for e in scenario.elements])
    wa = np.array([e.amplitude_hi for e in scenario.elements]) - alo
    plo = np.array([e.phase_lo for e in scenario.elements])
    wp = np.array([e.phase_hi for e in scenario.elements]) - plo
    vals = np.empty((stop - start, 2 * n))
    for i in range(start, stop):
        vals[i - start] = sample_stream(seed, i).uniform(size=2 * n)
    amps = alo + wa * vals[:, :n]
    phases = plo + wp * vals[:, n:]
    return amps * np.exp(1j * phases)


def run_mc(
    scenario: ArrayScenario,
    grid: AngularGrid,
    k_regions: int,
    n_samples: int,
    seed: int = 0,
    arc_points: int = 8,
    threads: int = 1,
    probe_directions=(),
    pmap: ProbabilityMap | None = None,
    chunk: int = 2048,
) -> McReport:
    """Sample n_samples crisp patterns and bin them into the paired ring partitions.

    Region assignment reuses the per-direction ring radii of the paired
    ProbabilityMap (computed here when not supplied).  Probe histograms use
    200 uniform dB bins spanning [lower bound - 1 dB, upper bound + 1 dB];
    when the lower bound is -inf the span falls back to 100 dB below the
    upper edge, and samples below it are left uncounted.
    """
    if n_samples < 1:
        raise ValidationError(f"n_samples must be at least 1, got {n_samples}")
    if pmap is None:
        pmap = probability_map(scenario, grid, k_regions, arc_points, threads)
    if pmap.k_regions != k_regions:
        raise ValidationError("paired probability map has a different ring count")

    n_u = len(grid)
    steering = np.exp(
        1j * _TWO_PI * scenario.spacing * np.outer(np.arange(scenario.n_elements), grid.samples)
    )
    inner_sq = pmap.ring_radii[:, 1:k_regions] ** 2  # boundaries between rings

    probe_idx = []
    for u in probe_directions:
        if not (-1.0 <= u <= 1.0):
            raise ValidationError(f"probe direction {u} must lie in [-1, 1]")
        probe_idx.append(int(np.argmin(np.abs(grid.samples - u))))
    probe_edges = []
    for ip in probe_idx:
        hi_edge = pmap.region_power_db[ip, k_regions] + 1.0
        lo_db = pmap.region_power_db[ip, 0]
        lo_edge = lo_db - 1.0 if math.isfinite(lo_db) else hi_edge - 100.0
        probe_edges.append(np.linspace(lo_edge, hi_edge, _HIST_BINS + 1))

    spans = [(s, min(s + chunk, n_samples)) for s in range(0, n_samples, chunk)]

    def accumulate(span):
        start, stop = span
        w = _excitation_block(scenario, seed, start, stop)
        power = np.abs(w @ steering) ** 2  # (chunk, N_u)
        lo = power.min(axis=0)
        hi = power.max(axis=0)
        # at_least[h]: samples at or above boundary h; every sample is at
        # or above boundary 0 and none is counted above boundary K
        at_least = np.zeros((k_regions + 1, n_u), dtype=np.int64)
        at_least[0] = stop - start
        for h in range(1, k_regions):
            at_least[h] = (power >= inner_sq[:, h - 1]).sum(axis=0)
        counts = at_least[:-1] - at_least[1:]
        hists = []
        for ip, edges in zip(probe_idx, probe_edges):
            with np.errstate(divide="ignore"):
                db = 10.0 * np.log10(power[:, ip] / pmap.peak_power)
            hists.append(np.histogram(db, bins=edges)[0])
        return lo, hi, counts, hists

    if threads <= 1 or len(spans) < 2:
        results = [accumulate(s) for s in spans]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(accumulate, spans))

    per_u_min = np.full(n_u, np.inf)
    per_u_max = np.full(n_u, -np.inf)
    counts = np.zeros((k_regions, n_u), dtype=np.int64)
    hist_counts = [np.zeros(_HIST_BINS, dtype=np.int64) for _ in probe_idx]
    for lo, hi, c, hists in results:
        np.minimum(per_u_min, lo, out=per_u_min)
        np.maximum(per_u_max, hi, out=per_u_max)
        counts += c
        for acc, h in zip(hist_counts, hists):
            acc += h

    histograms = tuple(
        ProbeHistogram(u=float(grid.samples[ip]), bin_edges_db=edges, counts=c)
        for ip, edges, c in zip(probe_idx, probe_edges, hist_counts)
    )
    return McReport(
        n_samples=n_samples,
        per_u_min=per_u_min,
        per_u_max=per_u_max,
        region_frequencies=counts / float(n_samples),
        mode_region=np.argmax(counts, axis=0) + 1,
        histograms=histograms,
    )
