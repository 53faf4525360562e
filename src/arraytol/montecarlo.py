"""Seeded Monte Carlo oracle for the interval bounds and ring probabilities.

A run draws every sample's excitations, in sample order, from one Philox
stream keyed by the seed, so results are bitwise identical for a fixed
seed no matter how work is chunked.  Chunks of samples are sized by one
byte budget that counts every buffer they hold: the draws, the power and
the ring masks.  Each chunk's complex pattern product is formed in row
blocks sized by a smaller, cache-sized budget and written straight into
the chunk's power rows.  Neither a chunk nor a block holds a lone row,
whose one-row product BLAS rounds differently (a gemv, not a gemm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError
from .iams import power_db, steering_phases
from .model import ArrayScenario, check_integer
from .pia import ProbabilityMap

if TYPE_CHECKING:
    from numpy.random import Generator

_HIST_BINS = 200
_CHUNK_BYTES = 2 << 20  # a chunk holds _CHUNK_BYTES // (16 N_u + 32 N) samples
_BLOCK_BYTES = 256 << 10  # one block's (block, N_u) complex128 product
SEED_LIMIT = 1 << 128  # seeds are Philox keys: two 64-bit words
SAMPLE_LIMIT = 1 << 63  # sample counts are int64


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
    call on a fresh sample_stream(seed).  numpy.random is imported here,
    not at module level, so processes that never sample (bounds, pia,
    features) do not load it: it adds about 6 MiB of resident memory.
    """
    from numpy.random import Generator, Philox

    return Generator(Philox(key=seed))


def sample_realization(scenario: ArrayScenario, stream: Generator) -> np.ndarray:
    """One crisp excitation draw, uniform in each amplitude/phase interval,
    from the next 2N uniforms of stream: _draw into fresh (2N,) and (N,)
    buffers, the per-sample reference of run_mc's chunks."""
    n = scenario.n_elements
    weights = np.empty(n, dtype=complex)
    _draw(_tolerance_box(scenario), stream, np.empty(2 * n), weights)
    return weights


def _tolerance_box(scenario: ArrayScenario) -> tuple[np.ndarray, np.ndarray]:
    """Lows and widths of the N amplitude intervals, then of the N phase intervals."""
    els = scenario.elements
    lo = np.array([e.amplitude_lo for e in els] + [e.phase_lo for e in els])
    return lo, np.array([e.amplitude_hi for e in els] + [e.phase_hi for e in els]) - lo


def _draw(
    box: tuple[np.ndarray, np.ndarray], stream: Generator, uniforms: np.ndarray, weights: np.ndarray
) -> None:
    """Draw excitations in place: fill uniforms, of shape (..., 2N), with the
    next uniforms u in [0, 1) of stream in C order and map them onto the
    tolerance box as lo + (hi - lo) * u, the first N the amplitudes a and
    the last N the phases b; then set weights, of shape (..., N), to
    a cos b + j a sin b, the bits of a * exp(jb)."""
    stream.random(out=uniforms)
    lo, width = box
    uniforms *= width
    uniforms += lo
    amp, phase = uniforms[..., : lo.size // 2], uniforms[..., lo.size // 2 :]
    re, im = weights.real, weights.imag
    np.multiply(np.cos(phase, out=re), amp, out=re)
    np.multiply(np.sin(phase, out=im), amp, out=im)


def _spans(n: int, step: int):
    """(start, stop) pairs covering range(n) in steps of step >= 2; a lone
    last row joins the span before it, so no span holds one row unless n is 1."""
    starts = range(0, max(n - 1, 1), step)
    return zip(starts, [*starts[1:], n])


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
    fresh stream.  Chunks of _CHUNK_BYTES // (16 N_u + 32 N) samples, at
    least 2, reuse buffers allocated once per run, so memory grows with
    neither n_samples nor N / N_u: per sample, 32 N bytes of uniforms and
    weights, which _draw maps in place, and 9 N_u of power and ring mask,
    written with out=.  The complex pattern
    product is formed in blocks of max(2, N, _BLOCK_BYTES // (16 N_u))
    rows, whose |z|^2 goes straight into the chunk's power rows; the N floor
    keeps each gemm large enough to run at full speed, and it makes a block
    the whole chunk when N_u is large.  A lone last sample joins the chunk
    before it, and a lone last row the block before it, as BLAS rounds a
    one-row product (gemv) unlike the others (gemm).  Each ring boundary's
    mask is summed over the chunk in one uint16 reduce.
    """
    check_integer("n_samples", n_samples, 1, SAMPLE_LIMIT)
    check_integer("seed", seed, 0, SEED_LIMIT)
    scenario, grid = pmap.bounds.scenario, pmap.bounds.grid
    k_regions = pmap.k_regions
    n_u = len(grid)
    box = _tolerance_box(scenario)
    # C order, since the gemm rounds by the memory layout of its operands;
    # in blocks of columns, so no (N, N_u) phase array is held
    steering = np.empty((scenario.n_elements, n_u), dtype=complex)
    for lo, hi in _spans(n_u, max(2, _BLOCK_BYTES // (16 * scenario.n_elements))):
        steering[:, lo:hi] = np.exp(1j * steering_phases(scenario, grid.samples[lo:hi])).T
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

    step = max(2, _CHUNK_BYTES // (16 * n_u + 32 * scenario.n_elements))
    block = max(2, scenario.n_elements, _BLOCK_BYTES // (16 * n_u))
    rows = min(step + 1, n_samples)
    product = np.empty((min(block + 1, rows), n_u), dtype=complex)
    power, ge = (np.empty((rows, n_u), dtype=t) for t in (float, bool))
    uniforms = np.empty((rows, 2 * scenario.n_elements))
    weights = np.empty((rows, scenario.n_elements), dtype=complex)
    stream = sample_stream(seed)
    per_u_min, per_u_max = np.full(n_u, np.inf), np.full(n_u, -np.inf)
    # at_least[h]: samples at or above ring boundary h (all at 0, none at K)
    at_least = np.zeros((k_regions + 1, n_u), dtype=np.int64)
    at_least[0] = n_samples
    hist_counts = [np.zeros(_HIST_BINS, dtype=np.int64) for _ in probe_idx]
    for start, stop in _spans(n_samples, step):
        m = stop - start
        p, mask, w = power[:m], ge[:m], weights[:m]
        _draw(box, stream, uniforms[:m], w)
        for lo, hi in _spans(m, block):
            z, pb = product[: hi - lo], p[lo:hi]
            np.matmul(w[lo:hi], steering, out=z)
            np.square(np.abs(z, out=pb), out=pb)
        np.minimum(per_u_min, p.min(axis=0), out=per_u_min)
        np.maximum(per_u_max, p.max(axis=0), out=per_u_max)
        for h in range(1, k_regions):
            np.greater_equal(p, inner_sq[h - 1], out=mask)
            # no wrap: a sample takes 48 bytes or more, so a chunk has < 2**16 rows
            at_least[h] += np.add.reduce(mask, axis=0, dtype=np.uint16)
        db = power_db(p[:, probe_idx], pmap.bounds.peak_power)
        for acc, col, edges in zip(hist_counts, db.T, probe_edges):
            acc += np.histogram(col, bins=edges)[0]

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
