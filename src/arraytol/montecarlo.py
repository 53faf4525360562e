"""Seeded Monte Carlo oracle for the interval bounds and ring probabilities.

Every sample draws its excitations from a counter-based random stream keyed
by (seed, sample index), so results are bitwise identical for a fixed seed
no matter how work is chunked: chunks are sized by a byte budget, and no
chunk holds a lone sample, whose one-row product BLAS rounds differently.
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
    """Empirical envelope and ring occupancy over n_samples realizations."""

    n_samples: int
    per_u_min: np.ndarray = field(repr=False)  # linear power
    per_u_max: np.ndarray = field(repr=False)
    region_frequencies: np.ndarray = field(repr=False)  # (K, N_u)
    mode_region: np.ndarray = field(repr=False)  # (N_u,) most frequent ring per direction, 1-based
    histograms: tuple[ProbeHistogram, ...] = ()


def sample_stream(seed: int, index: int) -> Generator:
    """Deterministic per-sample random stream keyed by (seed, sample index).

    This is the per-sample reference; run_mc draws the same numbers for a
    whole chunk of indices at once through philox_uniforms.
    """
    return Generator(Philox(key=seed, counter=index << 64))


def sample_realization(scenario: ArrayScenario, stream: Generator) -> np.ndarray:
    """One crisp excitation draw: uniform in each amplitude/phase interval."""
    return _excitations(_tolerance_box(scenario), stream.uniform(size=2 * scenario.n_elements))


def _tolerance_box(scenario: ArrayScenario) -> tuple[np.ndarray, np.ndarray]:
    """Lows and widths of the N amplitude intervals, then of the N phase intervals."""
    els = scenario.elements
    lo = np.array([e.amplitude_lo for e in els] + [e.phase_lo for e in els])
    return lo, np.array([e.amplitude_hi for e in els] + [e.phase_hi for e in els]) - lo


def _excitations(box: tuple[np.ndarray, np.ndarray], vals: np.ndarray) -> np.ndarray:
    """Map uniforms u in [0, 1) of shape (..., 2N) onto the tolerance box as
    lo + (hi - lo) * u: the first N set the amplitudes, the last N the phases."""
    lo, width = box
    x = lo + width * vals
    return x[..., : lo.size // 2] * np.exp(1j * x[..., lo.size // 2 :])


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # round multipliers
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # Weyl key increments


def _mulhilo(m: int, x):
    """High and low 64-bit words of the 128-bit product m * x.

    numpy has no uint128, so the high word is assembled from 32-bit halves;
    no partial sum exceeds 64 bits.  x is a Python int or a uint64 array.
    """
    m_lo, m_hi = m & _MASK32, m >> 32
    x_lo, x_hi = x & _MASK32, x >> 32
    ll = m_lo * x_lo
    t = m_hi * x_lo + (ll >> 32)
    u = m_lo * x_hi + (t & _MASK32)
    return m_hi * x_hi + (t >> 32) + (u >> 32), (m * x) & _MASK64


def philox_uniforms(seed: int, indices: np.ndarray, n_draws: int) -> np.ndarray:
    """(len(indices), n_draws) uniforms, row i equal bit for bit to
    ``sample_stream(seed, indices[i]).uniform(size=n_draws)``.

    Philox4x64-10 (Salmon et al., SC'11) is a pure function of key and
    counter.  numpy's ``Philox(key=seed, counter=i << 64)`` increments its
    counter before each block, so block b of sample i (draws 4b to 4b + 3)
    is the counter (b + 1, i, 0, 0) under the key (seed mod 2^64,
    seed >> 64); its four output words become doubles as
    (x >> 11) * 2^-53, like ``Generator.uniform``.  All ceil(n_draws / 4)
    blocks go through the 10 rounds in one pass, blocks on axis 0 and
    samples on axis 1; words shared by all blocks or all samples stay
    broadcast (Python ints if shared by both) until a round mixes them.
    """
    seed = int(seed)
    idx = np.asarray(indices, dtype=np.uint64)
    blocks = np.arange(1, (n_draws + 3) // 4 + 1, dtype=np.uint64)
    x0, x1, x2, x3 = blocks[:, None], idx[None, :], 0, 0
    k0, k1 = seed & _MASK64, seed >> 64
    for r in range(10):
        if r:
            k0 = (k0 + _PHILOX_W[0]) & _MASK64
            k1 = (k1 + _PHILOX_W[1]) & _MASK64
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    # (blocks, samples, 4) words -> (samples, 4 * blocks) in draw order
    words = np.stack((x0, x1, x2, x3), axis=-1).transpose(1, 0, 2).reshape(idx.size, -1)
    return (words[:, :n_draws] >> 11) * 2.0**-53


def run_mc(
    scenario: ArrayScenario,
    pmap: ProbabilityMap,
    n_samples: int,
    seed: int = 0,
    probe_directions=(),
) -> McReport:
    """Sample n_samples crisp patterns and bin them into pmap's ring partitions.

    Grid, ring count and per-direction ring radii are those of pmap.  Each
    probe direction is histogrammed at its nearest grid sample; probes that
    share a sample give one histogram, in the order first probed.  Probe
    histograms use 200 uniform dB bins spanning [lower bound - 1 dB, upper
    bound + 1 dB]; when the lower bound is -inf the span falls back to
    100 dB below the upper edge, and samples below it are left uncounted.
    Chunks of _CHUNK_BYTES // (16 N_u) samples, at least 2, reuse buffers;
    a lone last sample joins the chunk before it, as BLAS rounds a one-row
    product (gemv) unlike the others (gemm).
    """
    check_integer("n_samples", n_samples, 1)
    check_integer("seed", seed, 0, SEED_LIMIT)
    grid = pmap.grid
    k_regions = pmap.k_regions
    n_u = len(grid)
    box = _tolerance_box(scenario)
    steering = np.exp(
        1j * _TWO_PI * scenario.spacing * np.outer(np.arange(scenario.n_elements), grid.samples)
    )
    inner_sq = pmap.ring_radii[:, 1:k_regions] ** 2  # boundaries between rings

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
    per_u_min, per_u_max = np.full(n_u, np.inf), np.full(n_u, -np.inf)
    # at_least[h]: samples at or above ring boundary h (all at 0, none at K)
    at_least = np.zeros((k_regions + 1, n_u), dtype=np.int64)
    at_least[0] = n_samples
    hist_counts = [np.zeros(_HIST_BINS, dtype=np.int64) for _ in probe_idx]
    for start, stop in zip(starts, [*starts[1:], n_samples]):
        vals = philox_uniforms(seed, np.arange(start, stop), 2 * scenario.n_elements)
        z, p, mask = product[: stop - start], power[: stop - start], ge[: stop - start]
        np.matmul(_excitations(box, vals), steering, out=z)
        np.square(np.abs(z, out=p), out=p)
        np.minimum(per_u_min, p.min(axis=0), out=per_u_min)
        np.maximum(per_u_max, p.max(axis=0), out=per_u_max)
        for h in range(1, k_regions):
            np.greater_equal(p, inner_sq[:, h - 1], out=mask)
            at_least[h] += np.add.reduce(mask.view(np.uint8), axis=0, dtype=np.int32)
        for acc, ip, edges in zip(hist_counts, probe_idx, probe_edges):
            with np.errstate(divide="ignore"):
                db = 10.0 * np.log10(p[:, ip] / pmap.peak_power)
            acc += np.histogram(db, bins=edges)[0]

    counts = at_least[:-1] - at_least[1:]
    histograms = tuple(
        ProbeHistogram(u=float(grid.samples[ip]), index=ip, bin_edges_db=edges, counts=c)
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
