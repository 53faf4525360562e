"""Seeded Monte Carlo oracle for the interval bounds and ring probabilities.

A run reads its random numbers from one counter-based stream (Salmon et
al., SC 2011) built on SplitMix64 (Steele, Lea and Flood, OOPSLA 2014):
word j is mix64(key + (j + 1) * gamma) in wrapping 64-bit arithmetic, with
the key derived from the seed.  Samples take 2N words each, in sample
order, so word j sits at a fixed counter and results are bitwise identical
for a fixed seed no matter how work is chunked.  A chunk computes its words
in place, in a few uint64 passes over its excitation buffer, so no process
loads numpy.random.  Chunks of samples are sized by one byte budget that
counts every buffer they hold: the draws, the power and the ring masks.
Each chunk's complex pattern product is formed in row blocks sized by a
smaller, cache-sized budget and written straight into the chunk's power
rows.  Neither a chunk nor a block holds a lone row, whose one-row product
BLAS rounds differently (a gemv, not a gemm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .iams import power_db, steering_phases
from .model import ArrayScenario, check_integer
from .pia import ProbabilityMap

_HIST_BINS = 200
_CHUNK_BYTES = 2 << 20  # a chunk holds _CHUNK_BYTES // (16 N_u + 32 N) samples
_BLOCK_BYTES = 256 << 10  # one block's (block, N_u) complex128 product
SEED_LIMIT = 1 << 128  # seeds are two 64-bit words, folded into one key
SAMPLE_LIMIT = 1 << 63  # sample counts are int64

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's counter increment, odd, so the period is 2**64 words
# mix64 (Stafford's Mix13): z ^= z >> 30; z *= M1; z ^= z >> 27; z *= M2; z ^= z >> 31
_MIX_STEPS = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))
_MIX_LAST = 31


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
    """Empirical envelope and ring occupancy over n_samples realizations of a map's scenario."""

    n_samples: int
    per_u_min: np.ndarray = field(repr=False)  # linear power
    per_u_max: np.ndarray = field(repr=False)
    region_frequencies: np.ndarray = field(repr=False)  # (K, N_u)
    histograms: tuple[ProbeHistogram, ...] = ()


@dataclass
class SampleStream:
    """A run's random stream: its key and position, the counter of the next word it gives."""

    key: int
    position: int = 0


def _mix64(z: int) -> int:
    """SplitMix64's output function on one 64-bit word: a bijection, with _mix64(0) == 0."""
    for shift, factor in _MIX_STEPS:
        z = (z ^ (z >> shift)) * factor & _MASK
    return z ^ (z >> _MIX_LAST)


def sample_stream(seed: int) -> SampleStream:
    """The random stream of a run, at its first word.

    The key is mix64(lo ^ mix64(hi)) of the seed's low and high 64-bit
    words.  mix64 is a bijection and mix64(0) is 0, so every seed below
    2**64 has a key of its own, and seed 0 has key 0, whose first word is
    splitmix64's first output from state 0.  Samples read the stream in
    order, 2N words each, so sample i of run_mc is the i-th
    sample_realization call on a fresh sample_stream(seed).  The stream
    repeats after 2**64 words.
    """
    seed = int(seed)
    return SampleStream(_mix64((seed & _MASK) ^ _mix64(seed >> 64)))


def _words(stream: SampleStream, out: np.ndarray, scratch: np.ndarray) -> None:
    """Set out, uint64 of shape (..., W), to the stream's next out.size words
    in C order, and advance the stream past them.  scratch, a uint64 array
    of out's shape, is overwritten.

    Word j's state key + (j + 1) * gamma is a slot offset, copied into
    every row, plus a row offset; mix64 then runs in place, in wrapping
    uint64 arithmetic, shifting into scratch.  No pass allocates more than
    numpy's ufunc buffer.
    """
    width = out.shape[-1]
    slots = np.arange(width, dtype=np.uint64)
    slots *= np.uint64(_GAMMA)
    slots += np.uint64((stream.key + (stream.position + 1) * _GAMMA) & _MASK)
    rows = np.arange(out.size // width, dtype=np.uint64).reshape(*out.shape[:-1], 1)
    rows *= np.uint64(width * _GAMMA & _MASK)
    np.copyto(out, slots)  # a copy, then one broadcast add: numpy buffers each broadcast operand
    out += rows
    stream.position += out.size
    for shift, factor in _MIX_STEPS:
        np.bitwise_xor(out, np.right_shift(out, shift, out=scratch), out=out)
        out *= np.uint64(factor)
    np.bitwise_xor(out, np.right_shift(out, _MIX_LAST, out=scratch), out=out)


def sample_realization(scenario: ArrayScenario, stream: SampleStream) -> np.ndarray:
    """One crisp excitation draw, uniform in each amplitude/phase interval,
    from the next 2N words of stream: _draw into fresh (2N,) and (N,)
    buffers, the per-sample reference of run_mc's chunks."""
    n = scenario.n_elements
    weights = np.empty(n, dtype=complex)
    _draw(_tolerance_box(scenario), stream, np.empty(2 * n), weights)
    return weights


def _tolerance_box(scenario: ArrayScenario) -> tuple[np.ndarray, np.ndarray]:
    """Lows and widths of each element's amplitude interval then phase
    interval, element by element: the (2N,) layout of a sample's uniforms."""
    lo = np.array([(e.amplitude_lo, e.phase_lo) for e in scenario.elements]).ravel()
    hi = np.array([(e.amplitude_hi, e.phase_hi) for e in scenario.elements]).ravel()
    return lo, hi - lo


def _draw(
    box: tuple[np.ndarray, np.ndarray],
    stream: SampleStream,
    uniforms: np.ndarray,
    weights: np.ndarray,
) -> None:
    """Draw excitations in place.  The stream's next words, as many as
    uniforms, of shape (..., 2N), holds, are computed in weights, of shape
    (..., N), viewed as uint64, and each word w becomes the uniform
    u = (w >> 11) * 2**-53 in [0, 1).  Uniform 2n of a sample is element
    n's amplitude a and uniform 2n + 1 its phase b, each mapped onto its
    interval as lo + (hi - lo) * u; then weights is set to
    a cos b + j a sin b, the bits of a * exp(jb)."""
    words = weights.view(np.uint64)
    _words(stream, words, uniforms.view(np.uint64))
    np.right_shift(words, 11, out=words)
    np.multiply(words, 2.0**-53, out=uniforms)
    lo, width = box
    uniforms *= width
    uniforms += lo
    # element n is slot pair (2n, 2n + 1), so each slice is one strided loop
    amp, phase = uniforms[..., 0::2], uniforms[..., 1::2]
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
    2N words each, so sample i is the i-th sample_realization call on a
    fresh stream, and each word's counter is fixed whatever the chunks.
    Chunks of _CHUNK_BYTES // (16 N_u + 32 N) samples, at least 2, reuse
    buffers allocated once per run, so memory grows with neither n_samples
    nor N / N_u: per sample, 32 N bytes of uniforms and weights, which
    _draw fills in place, the weights holding the words until the
    excitations overwrite them, and 9 N_u of power and ring mask, written
    with out=.  The complex pattern product is formed in blocks of
    max(2, N, _BLOCK_BYTES // (16 N_u)) rows, whose |z|^2 goes straight
    into the chunk's power rows; the N floor keeps each gemm large enough
    to run at full speed, and it makes a block the whole chunk when N_u is
    large.  A lone last sample joins the chunk before it, and a lone last
    row the block before it, as BLAS rounds a one-row product (gemv) unlike
    the others (gemm).  Each ring boundary's mask is summed over the chunk
    in one uint16 reduce.
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
        n_samples=n_samples,
        per_u_min=per_u_min,
        per_u_max=per_u_max,
        region_frequencies=counts / float(n_samples),
        histograms=histograms,
    )
