"""Seeded Monte Carlo oracle for the interval bounds and ring probabilities.

Every sample draws its excitations from a counter-based random stream keyed
by (seed, sample index), so results are bitwise identical for a fixed seed
no matter how work is chunked.
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
    mode_region: np.ndarray = field(repr=False)  # 1-based ring index per sample
    histograms: tuple[ProbeHistogram, ...] = ()


def sample_stream(seed: int, index: int) -> Generator:
    """Deterministic per-sample random stream keyed by (seed, sample index).

    This is the per-sample reference; run_mc draws the same numbers for a
    whole chunk of indices at once through philox_uniforms.
    """
    return Generator(Philox(key=seed, counter=index << 64))


def sample_realization(scenario: ArrayScenario, stream: Generator) -> np.ndarray:
    """One crisp excitation draw: uniform in each amplitude/phase interval."""
    return _excitations(scenario, stream.uniform(size=2 * scenario.n_elements))


def _excitations(scenario: ArrayScenario, vals: np.ndarray) -> np.ndarray:
    """Map uniforms in [0, 1) of shape (..., 2N) onto the tolerance box.

    The first N uniforms of a sample set the amplitudes, the last N the
    phases, each as lo + (hi - lo) * u.
    """
    n = scenario.n_elements
    alo = np.array([e.amplitude_lo for e in scenario.elements])
    ahi = np.array([e.amplitude_hi for e in scenario.elements])
    plo = np.array([e.phase_lo for e in scenario.elements])
    phi = np.array([e.phase_hi for e in scenario.elements])
    amps = alo + (ahi - alo) * vals[..., :n]
    phases = plo + (phi - plo) * vals[..., n:]
    return amps * np.exp(1j * phases)


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
    (x >> 11) * 2^-53, like ``Generator.uniform``.  The loop runs over the
    few blocks and each step works on all samples at once, so temporaries
    stay at len(indices) words; counter words shared by every sample stay
    Python ints until a round mixes them with the index word.
    """
    seed = int(seed)
    idx = np.asarray(indices, dtype=np.uint64)
    out = np.empty((idx.size, n_draws))
    for col in range(0, n_draws, 4):
        x0, x1, x2, x3 = col // 4 + 1, idx, 0, 0
        k0, k1 = seed & _MASK64, seed >> 64
        for r in range(10):
            if r:
                k0 = (k0 + _PHILOX_W[0]) & _MASK64
                k1 = (k1 + _PHILOX_W[1]) & _MASK64
            hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
            hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
            x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
        for j, x in enumerate((x0, x1, x2, x3)[: n_draws - col]):
            out[:, col + j] = (x >> 11) * 2.0**-53
    return out


def _excitation_block(scenario: ArrayScenario, seed: int, start: int, stop: int) -> np.ndarray:
    """Stack of realizations for sample indices [start, stop)."""
    vals = philox_uniforms(seed, np.arange(start, stop), 2 * scenario.n_elements)
    return _excitations(scenario, vals)


def run_mc(
    scenario: ArrayScenario,
    pmap: ProbabilityMap,
    n_samples: int,
    seed: int = 0,
    probe_directions=(),
    chunk: int = 2048,
) -> McReport:
    """Sample n_samples crisp patterns and bin them into pmap's ring partitions.

    Grid, ring count and per-direction ring radii are those of pmap.  Each
    probe direction is histogrammed at its nearest grid sample; probes that
    share a sample give one histogram, in the order first probed.  Probe
    histograms use 200 uniform dB bins spanning [lower bound - 1 dB, upper
    bound + 1 dB]; when the lower bound is -inf the span falls back to
    100 dB below the upper edge, and samples below it are left uncounted.
    """
    check_integer("n_samples", n_samples, 1)
    check_integer("seed", seed, 0, SEED_LIMIT)
    grid = pmap.grid
    k_regions = pmap.k_regions
    n_u = len(grid)
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

    per_u_min = np.full(n_u, np.inf)
    per_u_max = np.full(n_u, -np.inf)
    counts = np.zeros((k_regions, n_u), dtype=np.int64)
    hist_counts = [np.zeros(_HIST_BINS, dtype=np.int64) for _ in probe_idx]
    for start in range(0, n_samples, chunk):
        stop = min(start + chunk, n_samples)
        power = np.abs(_excitation_block(scenario, seed, start, stop) @ steering) ** 2
        np.minimum(per_u_min, power.min(axis=0), out=per_u_min)
        np.maximum(per_u_max, power.max(axis=0), out=per_u_max)
        # at_least[h]: samples at or above boundary h; every sample is at
        # or above boundary 0 and none is counted above boundary K
        at_least = np.zeros((k_regions + 1, n_u), dtype=np.int64)
        at_least[0] = stop - start
        for h in range(1, k_regions):
            at_least[h] = (power >= inner_sq[:, h - 1]).sum(axis=0)
        counts += at_least[:-1] - at_least[1:]
        for acc, ip, edges in zip(hist_counts, probe_idx, probe_edges):
            with np.errstate(divide="ignore"):
                db = 10.0 * np.log10(power[:, ip] / pmap.peak_power)
            acc += np.histogram(db, bins=edges)[0]
        del power  # (chunk, N_u): free it before the next chunk is drawn

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
