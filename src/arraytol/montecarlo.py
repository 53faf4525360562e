"""Seeded Monte Carlo oracle for the interval bounds and ring probabilities.

A run draws every sample's excitations, in sample order, from one Philox
stream keyed by the seed, so results are bitwise identical for a fixed
seed no matter how work is chunked: chunks are sized by a byte budget,
and no chunk holds a lone sample, whose one-row product BLAS rounds
differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .errors import ValidationError
from .model import ArrayScenario, check_integer
from .pia import ProbabilityMap

_TWO_PI = 2.0 * math.pi
_HIST_BINS = 200
_CHUNK_BYTES = 2 << 20  # one chunk's (chunk, N_u) complex128 product
SEED_LIMIT = 1 << 128  # seeds are Philox keys: two 64-bit words


@dataclass(frozen=True)
class ProbeHistogram:
    """Fixed-bin dB histogram of the sampled power at one probe direction.

    u is the grid sample nearest the probed direction and index its
    position in the grid.
    """

    u: float
    index: int
    bin_edges_db: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class McReport:
    """Empirical envelope and ring occupancy over n_samples realizations of pmap's scenario."""

    pmap: ProbabilityMap = field(repr=False)
    n_samples: int
    per_u_min: np.ndarray = field(repr=False)  # linear power
    per_u_max: np.ndarray = field(repr=False)
    region_frequencies: np.ndarray = field(repr=False)  # (K, N_u)
    mode_region: np.ndarray = field(repr=False)  # (N_u,) most frequent ring per direction, 1-based
    histograms: tuple[ProbeHistogram, ...] = ()


def sample_stream(seed: int) -> Generator:
    """The random stream of a run: numpy's Philox4x64-10 keyed by the seed.

    The seed is the 128-bit key.  Samples read the stream in order, 2N
    uniforms each, so sample i of run_mc is the i-th sample_realization
    call on a fresh sample_stream(seed).
    """
    return Generator(Philox(key=seed))


def sample_realization(scenario: ArrayScenario, stream: Generator) -> np.ndarray:
    """One crisp excitation draw, uniform in each amplitude/phase interval,
    from the next 2N uniforms of stream."""
    return _draw(_tolerance_box(scenario), stream, np.empty(2 * scenario.n_elements))


def _tolerance_box(scenario: ArrayScenario) -> tuple[np.ndarray, np.ndarray]:
    """Lows and widths of the N amplitude intervals, then of the N phase intervals."""
    els = scenario.elements
    lo = np.array([e.amplitude_lo for e in els] + [e.phase_lo for e in els])
    return lo, np.array([e.amplitude_hi for e in els] + [e.phase_hi for e in els]) - lo


def _draw(box: tuple[np.ndarray, np.ndarray], stream: Generator, out: np.ndarray) -> np.ndarray:
    """Fill out, of shape (..., 2N), with the next uniforms u in [0, 1) of
    stream in C order and map them onto the tolerance box as
    lo + (hi - lo) * u: the first N set the amplitudes, the last N the phases."""
    stream.random(out=out)
    lo, width = box
    x = lo + width * out
    return x[..., : lo.size // 2] * np.exp(1j * x[..., lo.size // 2 :])


def run_mc(pmap: ProbabilityMap, n_samples: int, seed: int = 0, probe_directions=()) -> McReport:
    """Sample n_samples crisp patterns and bin them into pmap's ring partitions.

    Scenario and grid are those of pmap's bounds, and ring count and
    per-direction ring radii those of pmap.  Each
    probe direction is histogrammed at its nearest grid sample; probes that
    share a sample give one histogram, in the order first probed.  Probe
    histograms use 200 uniform dB bins spanning [lower bound - 1 dB, upper
    bound + 1 dB]; when the lower bound is -inf the span falls back to
    100 dB below the upper edge, and samples below it are left uncounted.
    Samples draw their excitations in order from one sample_stream(seed),
    2N uniforms each, so sample i is the i-th sample_realization call on a
    fresh stream.  Chunks of _CHUNK_BYTES // (16 N_u) samples, at least 2,
    reuse buffers; a lone last sample joins the chunk before it, as BLAS
    rounds a one-row product (gemv) unlike the others (gemm).
    """
    check_integer("n_samples", n_samples, 1)
    check_integer("seed", seed, 0, SEED_LIMIT)
    scenario, grid = pmap.bounds.scenario, pmap.bounds.grid
    k_regions = pmap.k_regions
    n_u = len(grid)
    box = _tolerance_box(scenario)
    steering = np.exp(
        1j * _TWO_PI * scenario.spacing * np.outer(np.arange(scenario.n_elements), grid.samples)
    )
    # boundaries between rings, one contiguous row per boundary
    inner_sq = np.ascontiguousarray(pmap.ring_radii[:, 1:k_regions].T ** 2)

    probe_idx = []
    for u in probe_directions:
        if not (-1.0 <= u <= 1.0):
            raise ValidationError(f"probe direction {u} must lie in [-1, 1]")
        ip = int(np.argmin(np.abs(grid.samples - u)))
        if ip not in probe_idx:
            probe_idx.append(ip)
    probe_edges = []
    for ip in probe_idx:
        hi_edge = pmap.region_power_db[ip, k_regions] + 1.0
        lo_db = pmap.region_power_db[ip, 0]
        lo_edge = lo_db - 1.0 if math.isfinite(lo_db) else hi_edge - 100.0
        probe_edges.append(np.linspace(lo_edge, hi_edge, _HIST_BINS + 1))

    step = max(2, _CHUNK_BYTES // (16 * n_u))
    starts = range(0, max(n_samples - 1, 1), step)  # no start leaves one sample
    rows = min(step + 1, n_samples)
    product, power, ge = (np.empty((rows, n_u), dtype=t) for t in (complex, float, bool))
    uniforms = np.empty((rows, 2 * scenario.n_elements))
    stream = sample_stream(seed)
    per_u_min, per_u_max = np.full(n_u, np.inf), np.full(n_u, -np.inf)
    # at_least[h]: samples at or above ring boundary h (all at 0, none at K)
    at_least = np.zeros((k_regions + 1, n_u), dtype=np.int64)
    at_least[0] = n_samples
    hist_counts = [np.zeros(_HIST_BINS, dtype=np.int64) for _ in probe_idx]
    for start, stop in zip(starts, [*starts[1:], n_samples]):
        z, p, mask = product[: stop - start], power[: stop - start], ge[: stop - start]
        np.matmul(_draw(box, stream, uniforms[: stop - start]), steering, out=z)
        np.square(np.abs(z, out=p), out=p)
        np.minimum(per_u_min, p.min(axis=0), out=per_u_min)
        np.maximum(per_u_max, p.max(axis=0), out=per_u_max)
        for h in range(1, k_regions):
            np.greater_equal(p, inner_sq[h - 1], out=mask)
            at_least[h] += np.add.reduce(mask.view(np.uint8), axis=0, dtype=np.int32)
        for acc, ip, edges in zip(hist_counts, probe_idx, probe_edges):
            with np.errstate(divide="ignore"):
                db = 10.0 * np.log10(p[:, ip] / pmap.bounds.peak_power)
            acc += np.histogram(db, bins=edges)[0]

    counts = at_least[:-1] - at_least[1:]
    histograms = tuple(
        ProbeHistogram(u=float(grid.samples[ip]), index=ip, bin_edges_db=edges, counts=c)
        for ip, edges, c in zip(probe_idx, probe_edges, hist_counts)
    )
    return McReport(
        pmap=pmap,
        n_samples=n_samples,
        per_u_min=per_u_min,
        per_u_max=per_u_max,
        region_frequencies=counts / float(n_samples),
        mode_region=np.argmax(counts, axis=0) + 1,
        histograms=histograms,
    )
